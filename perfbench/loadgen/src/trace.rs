//! In-memory spans for the traced run, written out once at exit.
//!
//! Client spans cover whole requests as the load generator saw them. A
//! solve's stage spans come from the response's `report` block: they carry
//! durations but no start of their own, so each is placed at its
//! request's start. Replay spans time the in-process layer calls.

use crate::workload::StageReport;
use std::time::Duration;
use ukc_json::Json;

struct Span {
    parent: Option<usize>,
    name: String,
    start_us: f64,
    dur_us: f64,
}

#[derive(Default)]
pub struct Spans {
    on: bool,
    spans: Vec<Span>,
    last_request: Option<usize>,
}

impl Spans {
    /// A recorder; with `on == false` (the default) it records nothing,
    /// so an untraced run does no span work.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            ..Spans::default()
        }
    }

    /// A client request span; stage spans recorded next become its children.
    pub fn request(&mut self, class: &str, start: Duration, latency_ms: f64) {
        if !self.on {
            return;
        }
        self.last_request = Some(self.spans.len());
        self.spans.push(Span {
            parent: None,
            name: format!("http.{class}"),
            start_us: start.as_secs_f64() * 1e6,
            dur_us: latency_ms * 1e3,
        });
    }

    /// The solve stages a response reported, as children of its request.
    pub fn stages(&mut self, report: &StageReport) {
        let Some(parent) = self.last_request else {
            return;
        };
        let start_us = self.spans[parent].start_us;
        for (name, ms) in [
            ("core.representatives", report.representatives_ms),
            ("core.certain_solve", report.certain_solve_ms),
            ("core.assignment", report.assignment_ms),
            ("core.cost", report.cost_ms),
            ("core.lower_bound", report.lower_bound_ms),
            ("core.solve_total", report.total_ms),
        ] {
            self.spans.push(Span {
                parent: Some(parent),
                name: name.into(),
                start_us,
                dur_us: ms * 1e3,
            });
        }
    }

    /// A span around an in-process layer call of the replay.
    pub fn replay(&mut self, name: &str, start: Duration, took: Duration) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            parent: None,
            name: format!("replay.{name}"),
            start_us: start.as_secs_f64() * 1e6,
            dur_us: took.as_secs_f64() * 1e6,
        });
    }

    pub fn extend(&mut self, other: Spans) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        self.last_request = None;
    }

    /// The spans as one JSON document; ids are positions in the list.
    pub fn to_json(&self) -> Json {
        Json::arr(self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("id", Json::from(id)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("name", Json::from(s.name.as_str())),
                ("start_us", Json::from(s.start_us)),
                ("dur_us", Json::from(s.dur_us)),
            ])
        }))
    }
}

//! `ukc generate` writes its instance as compact JSON — one line, no
//! indentation — that parses back to the very set the generator built.

use std::process::Command;

use ukc_json::format::JsonInstance;
use ukc_uncertain::generators::{clustered, ProbModel};

#[test]
fn generated_instances_are_compact_and_parse_back_to_the_set() {
    let dir = std::env::temp_dir().join(format!("ukc-generate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("instance.json");
    let status = Command::new(env!("CARGO_BIN_EXE_ukc"))
        .args([
            "generate",
            "--workload",
            "clustered",
            "--n",
            "40",
            "--z",
            "3",
        ])
        .args(["--dim", "4", "--seed", "11", "--out"])
        .arg(&out)
        .status()
        .expect("run ukc generate");
    assert!(status.success());
    let text = std::fs::read_to_string(&out).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let parsed = JsonInstance::parse(&text).expect("a valid instance document");
    assert_eq!(text, parsed.to_json().compact(), "the file is compact JSON");
    assert!(!text.contains('\n'));

    // `--clusters` defaults to 3 and `--probs` to random.
    let set = clustered(11, 40, 3, 4, 3, 5.0, 1.5, ProbModel::Random);
    let back = parsed.to_set_verbatim().unwrap();
    assert_eq!(back.n(), set.n());
    for (a, b) in back.iter().zip(set.iter()) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.probs()), bits(b.probs()));
        assert_eq!(a.locations().len(), b.locations().len());
        for (p, q) in a.locations().iter().zip(b.locations()) {
            assert_eq!(bits(p.coords()), bits(q.coords()));
        }
    }
}

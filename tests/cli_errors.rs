//! Out-of-range CLI values are typed errors (exit 1 with an `error:`
//! line), never panics (exit 101). Each invocation fails during flag
//! validation, before any dataset is generated, so the suite is cheap.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hdc"))
        .args(args)
        .output()
        .expect("spawn hdc");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn zero_sizes_are_typed_errors_not_panics() {
    let cases: &[&[&str]] = &[
        &[
            "crawl",
            "--dataset",
            "yahoo",
            "--algo",
            "hybrid",
            "--k",
            "0",
        ],
        &["barrier", "--dataset", "yahoo", "--k", "0"],
        &["serve", "--dataset", "yahoo", "--k", "0"],
        &["sweep", "--dataset", "yahoo", "--ks", "0"],
        &["sweep", "--dataset", "yahoo", "--ks", "64,0"],
        &["hard", "numeric", "--k", "0"],
        &["hard", "numeric", "--d", "0"],
        &["hard", "numeric", "--m", "0"],
        &["hard", "categorical", "--k", "0"],
        &["hard", "categorical", "--u", "0"],
        &["hard", "categorical", "--u", "1"],
    ];
    for args in cases {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(1), "hdc {args:?} exited {code:?}: {stderr}");
        assert!(stderr.contains("error: --"), "hdc {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "hdc {args:?}: {stderr}");
    }
}

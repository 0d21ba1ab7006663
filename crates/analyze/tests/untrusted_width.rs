//! The `dqc-analyze` binary refuses an untrusted register width on its
//! typed parse-error path instead of aborting on a huge allocation.

use std::process::Command;

#[test]
fn oversized_qreg_exits_with_a_parse_error() {
    let file = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/oversized-qreg.qasm"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_dqc-analyze"))
        .arg(file)
        .output()
        .expect("the analyzer runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("exceeds the limit"), "stderr: {stderr}");
}

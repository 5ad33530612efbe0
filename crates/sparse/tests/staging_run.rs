//! The panel readers' staging run, through the public API and the real
//! `TMPDIR`: it is gone from the temp dir on every exit path, and a temp
//! dir that cannot hold it is a typed error, not a panic.
//!
//! This file holds exactly one test because `TMPDIR` is process-global:
//! no neighbouring test may race the variable.

use sparch_sparse::{gen, mm, SparseError};
use std::path::Path;

fn assert_empty(dir: &Path, when: &str) {
    let left: Vec<_> = std::fs::read_dir(dir)
        .expect("list temp dir")
        .map(|entry| entry.expect("dir entry").file_name())
        .collect();
    assert!(
        left.is_empty(),
        "{when}: left in {}: {left:?}",
        dir.display()
    );
}

#[test]
fn the_staging_run_never_outlives_its_reader_and_its_failures_are_typed() {
    let scratch = std::env::temp_dir().join(format!("sparch_staging_run_{}", std::process::id()));
    let tmp = scratch.join("tmp");
    std::fs::create_dir_all(&tmp).expect("create scratch");

    // 60 000 entries over 4 panels: far beyond the readers' buffers, so
    // most of the operand goes through the run.
    let m = gen::uniform_random(300, 300, 60_000, 17).to_coo();
    let (good, short) = (scratch.join("good.mtx"), scratch.join("short.mtx"));
    mm::write_file(&good, &m).expect("write operand");
    let text = std::fs::read_to_string(&good).expect("read operand");
    let lines: Vec<&str> = text.lines().collect();
    std::fs::write(&short, lines[..lines.len() - 7].join("\n")).expect("write short operand");

    std::env::set_var("TMPDIR", &tmp);

    // Full drain: the product of the panels is the whole read, and the run
    // is already unlinked while the reader is still alive.
    let mut reader = mm::read_panels(&good, 4).expect("open");
    let mut entries = 0;
    while let Some(panel) = reader.next_panel() {
        entries += panel.expect("panel").1.nnz();
        assert_empty(&tmp, "mid-drain");
    }
    assert_eq!(entries, m.nnz());
    drop(reader);
    assert_empty(&tmp, "after a full drain");

    // Early drop, one panel in.
    let mut reader = mm::read_row_panels(&good, 4).expect("open");
    assert!(reader.next_panel().expect("first panel").is_ok());
    drop(reader);
    assert_empty(&tmp, "after an early drop");

    // Entry error, discovered at the end of the scan — after staging.
    let mut reader = mm::read_panels(&short, 4).expect("open");
    let want = SparseError::Parse(format!(
        "declared {} entries but found {}",
        m.nnz(),
        m.nnz() - 7
    ));
    assert_eq!(reader.next_panel().expect("first panel").unwrap_err(), want);
    assert_empty(&tmp, "after an entry error");
    drop(reader);

    // A temp dir that cannot hold the run (here: it is a regular file).
    std::env::set_var("TMPDIR", &good);
    let mut reader = mm::read_panels(&good, 4).expect("open needs no temp dir");
    match reader.next_panel().expect("first panel") {
        Err(SparseError::Io(msg)) => assert!(
            msg.contains(good.to_str().expect("utf-8 path")),
            "error does not name the run: {msg}"
        ),
        other => panic!("expected an I/O error, got {other:?}"),
    }
    assert!(
        reader.next_panel().is_none(),
        "the error ends the iteration"
    );
    // ... which an operand that fits the buffers never notices.
    let small = scratch.join("small.mtx");
    mm::write_file(&small, &gen::uniform_random(40, 40, 300, 3).to_coo()).expect("write");
    let total: usize = mm::read_row_panels(&small, 4)
        .expect("open")
        .map(|panel| panel.expect("panel").1.nnz())
        .sum();
    assert_eq!(total, 300);

    std::fs::remove_dir_all(&scratch).expect("remove scratch");
}

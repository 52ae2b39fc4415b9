//! The frontend's correctness pins:
//!
//! * round-trip — `parse(print(t)) == Ok(t)` for every library test and for
//!   randomly generated programs covering loads, stores, ALU ops, branches,
//!   labels, all four fences, initial memory and conditions;
//! * canonical idempotence — `print(parse(print(t))) == print(t)`;
//! * precise error positions — bad labels, duplicate locations and
//!   malformed conditions report the exact line/column;
//! * corpus export/load — `export_library` followed by `Corpus::load`
//!   reproduces the in-code library and its expectation table.

use gam_frontend::{export_library, parse_litmus, print_litmus, Corpus};
use gam_isa::litmus::{library, space, LitmusTest};
use gam_isa::prelude::*;
use proptest::prelude::*;

mod common;
use common::random_test;

// ---------------------------------------------------------------------------
// round-trip: the library
// ---------------------------------------------------------------------------

#[test]
fn every_library_test_round_trips() {
    for test in library::all_tests() {
        let text = print_litmus(&test);
        let parsed = parse_litmus(&text).unwrap_or_else(|err| {
            panic!("{}: printed text fails to parse: {err}\n{text}", test.name())
        });
        assert_eq!(parsed, test, "{}: round-trip changed the test\n{text}", test.name());
    }
}

#[test]
fn printing_is_idempotent_on_the_library() {
    for test in library::all_tests() {
        let once = print_litmus(&test);
        let twice = print_litmus(&parse_litmus(&once).expect("parses"));
        assert_eq!(once, twice, "{}: canonical text is not a fixed point", test.name());
    }
}

// ---------------------------------------------------------------------------
// round-trip: random programs
// ---------------------------------------------------------------------------

/// `space::PRINTABLE` holds every step kind: direct, register-indirect and
/// offset addressing, all six ALU operations, all four fences and forward
/// branches with labels.
#[test]
fn random_programs_round_trip() {
    for seed in 0..300u64 {
        let test = random_test(&space::PRINTABLE, seed);
        let text = print_litmus(&test);
        let parsed = parse_litmus(&text).unwrap_or_else(|err| {
            panic!("seed {seed}: printed text fails to parse: {err}\n{text}")
        });
        assert_eq!(parsed, test, "seed {seed}: round-trip changed the test\n{text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_programs_round_trip_property(seed in 1000u64..100_000) {
        let test = random_test(&space::PRINTABLE, seed);
        let text = print_litmus(&test);
        let parsed = parse_litmus(&text).expect("printed text parses");
        prop_assert_eq!(parsed, test);
    }
}

// ---------------------------------------------------------------------------
// structural edge cases
// ---------------------------------------------------------------------------

#[test]
fn empty_threads_and_empty_condition_round_trip() {
    let mut p1 = ThreadProgram::builder(ProcId::new(0));
    p1.load(Reg::new(1), Addr::loc(Loc::new("a")));
    let p2 = ThreadProgram::builder(ProcId::new(1)).build();
    let test = LitmusTest::builder("edge", Program::new(vec![p1.build(), p2]))
        .observe_mem(Loc::new("a"))
        .build();
    assert!(test.condition().is_empty());
    let text = print_litmus(&test);
    assert_eq!(parse_litmus(&text).unwrap(), test);
}

#[test]
fn unknown_location_addresses_print_as_integers_and_round_trip() {
    let odd = Loc::from_address(0xdead_beef);
    let mut p1 = ThreadProgram::builder(ProcId::new(0));
    p1.store(Addr::loc(odd), Operand::imm(1)).load(Reg::new(1), Addr::loc(odd));
    let test = LitmusTest::builder("odd-address", Program::new(vec![p1.build()]))
        .init(odd, 7u64)
        .expect_reg(ProcId::new(0), Reg::new(1), 7u64)
        .observe_mem(odd)
        .build();
    let text = print_litmus(&test);
    assert!(text.contains("3735928559"), "raw address must print as an integer:\n{text}");
    assert_eq!(parse_litmus(&text).unwrap(), test);
}

#[test]
fn hand_written_format_flexibility() {
    // Comments, blank lines, hex literals, `forbidden`, no locations clause,
    // multi-line init block, uneven whitespace.
    let text = "\
// a hand-written file
GAM handmade

\"with a \\\"quoted\\\" description\"
{
  a = 0x10;
  b = 3;
}
P1 | P2 ;
St [a] 1 | r1 = Ld [b + 8] ; // trailing comment
FenceSS |  ;
St [b] 2 | r2 = mov r1, 0 ;
forbidden (P2:r1 = 1 /\\ P2:r2 = 1 /\\ a = 16)
";
    let test = parse_litmus(text).expect("flexible syntax parses");
    assert_eq!(test.name(), "handmade");
    assert_eq!(test.description(), "with a \"quoted\" description");
    assert_eq!(test.initial_value(Loc::new("a").address()), Value::new(16));
    assert_eq!(test.program().num_threads(), 2);
    assert_eq!(test.program().threads()[0].len(), 3);
    assert_eq!(test.program().threads()[1].len(), 2);
    assert_eq!(test.condition().len(), 3);
    // The parsed test round-trips through the canonical printer too.
    let canonical = print_litmus(&test);
    assert_eq!(parse_litmus(&canonical).unwrap(), test);
}

#[test]
fn labels_and_branches_round_trip() {
    let mut p1 = ThreadProgram::builder(ProcId::new(0));
    p1.label("top")
        .load(Reg::new(1), Addr::loc(Loc::new("a")))
        .branch(BranchCond::Eq, Operand::reg(Reg::new(1)), Operand::imm(0), "top")
        .branch(BranchCond::Ne, Operand::reg(Reg::new(1)), Operand::imm(5), "done")
        .store(Addr::loc(Loc::new("b")), Operand::imm(1))
        .label("done");
    let test = LitmusTest::builder("branchy", Program::new(vec![p1.build()]))
        .expect_reg(ProcId::new(0), Reg::new(1), 0u64)
        .build();
    let text = print_litmus(&test);
    assert!(text.contains("top: r1 = Ld"));
    assert!(text.contains("-> done"));
    assert_eq!(parse_litmus(&text).unwrap(), test);
}

// ---------------------------------------------------------------------------
// parser error paths: exact positions
// ---------------------------------------------------------------------------

/// Asserts that `text` fails to parse at `line:col` with `needle` in the
/// message.
fn assert_error(text: &str, line: usize, col: usize, needle: &str) {
    let err = parse_litmus(text).unwrap_err();
    assert!(
        err.message.contains(needle),
        "expected `{needle}` in error, got `{err}`\ninput:\n{text}"
    );
    assert_eq!(
        (err.span.line, err.span.col),
        (line, col),
        "wrong position for `{err}`\ninput:\n{text}"
    );
}

#[test]
fn bad_label_errors_carry_positions() {
    // Branch to an undefined label.
    assert_error(
        "GAM t\nP1 ;\nbeq r1, 0 -> nowhere ;\n",
        3,
        14,
        "branch target `nowhere` is not defined in thread P1",
    );
    // Duplicate label definition.
    assert_error(
        "GAM t\nP1 ;\nloop: St [a] 1 ;\nloop: St [a] 2 ;\n",
        4,
        1,
        "label `loop` defined more than once",
    );
    // Reserved word as a label.
    assert_error("GAM t\nP1 ;\nSt: St [a] 1 ;\n", 3, 1, "reserved word");
}

#[test]
fn duplicate_location_errors_carry_positions() {
    assert_error("GAM t\n{ a = 1; a = 2; }\nP1 ;\nSt [a] 1 ;\n", 2, 10, "initialised twice");
    // The same location under two spellings (name and raw address).
    let addr = Loc::new("a").address();
    let text = format!("GAM t\n{{ a = 1; {addr} = 2; }}\nP1 ;\nSt [a] 1 ;\n");
    assert_error(&text, 2, 10, "initialised twice");
}

#[test]
fn malformed_condition_errors_carry_positions() {
    // Missing value.
    assert_error("GAM t\nP1 ;\nr1 = Ld [a] ;\nexists (P1:r1 = )\n", 4, 17, "expected a value");
    // `&&` instead of `/\` dies in the lexer with a position.
    assert_error(
        "GAM t\nP1 ;\nr1 = Ld [a] ;\nexists (P1:r1 = 0 && P1:r1 = 1)\n",
        4,
        19,
        "unexpected character",
    );
    // A stray token instead of `/\` between terms.
    assert_error(
        "GAM t\nP1 ;\nr1 = Ld [a] ;\nexists (P1:r1 = 0 P1:r1 = 1)\n",
        4,
        19,
        "to close the condition",
    );
    // Observation of a processor that does not exist.
    assert_error("GAM t\nP1 ;\nr1 = Ld [a] ;\nexists (P4:r1 = 0)\n", 4, 9, "does not exist");
    // The same observation constrained twice.
    assert_error(
        "GAM t\nP1 ;\nr1 = Ld [a] ;\nexists (P1:r1 = 0 /\\ P1:r1 = 1)\n",
        4,
        22,
        "constrained twice",
    );
    // Observing a register the thread never writes.
    assert_error(
        "GAM t\nP1 ;\nSt [a] 1 ;\nexists (P1:r7 = 0)\n",
        4,
        9,
        "never written by thread P1",
    );
}

#[test]
fn structural_errors_carry_positions() {
    // Row with too few columns.
    assert_error("GAM t\nP1 | P2 ;\nSt [a] 1 ;\n", 3, 10, "row ends after 1 of 2");
    // Unterminated header row.
    assert_error("GAM t\nP1 | P2\nSt [a] 1 | St [b] 1 ;\n", 3, 1, "thread header row");
    // Thread columns out of order.
    assert_error("GAM t\nP2 | P1 ;\n", 2, 1, "must be named P1, P2");
    // Garbage instruction.
    assert_error("GAM t\nP1 ;\nfoo bar ;\n", 3, 1, "expected an instruction");
    // Missing name in the header.
    assert_error("GAM\nP1 ;\nSt [a] 1 ;\n", 1, 1, "header must be");
    // Trailing garbage after the condition.
    assert_error("GAM t\nP1 ;\nr1 = Ld [a] ;\nexists (P1:r1 = 0)\njunk\n", 5, 1, "unexpected");
}

#[test]
fn lexer_errors_carry_character_positions() {
    // A `/` that starts neither a comment nor `/\`.
    assert_error("GAM t\nP1 ;\nSt [a] 1 / ;\n", 3, 10, "expected `//` comment or `/\\`");
    // A `-` that does not start `->`.
    assert_error("GAM t\nP1 ;\nbeq r1, 0 - done ;\n", 3, 11, "expected `->`");
    // An integer literal that does not fit in 64 bits.
    assert_error(
        "GAM t\nP1 ;\nSt [a] 99999999999999999999 ;\n",
        3,
        8,
        "`99999999999999999999` is not a valid integer literal",
    );
    // A character no token starts with.
    assert_error("GAM t\nP1 ;\nSt [a] $ ;\n", 3, 8, "unexpected character `$`");
    // Columns count characters: the ideographic space (three bytes in
    // UTF-8) before the error moves it by one column, not three.
    assert_error("GAM t\nP1 ;\nSt\u{3000}[a] 1 $ ;\n", 3, 10, "unexpected character `$`");
    assert_error("GAM t\nP1 ;\nSt [a]\u{3000}\u{e9} ;\n", 3, 8, "unexpected character `\u{e9}`");
    // A multi-byte comment before the next line leaves that line's columns
    // alone, and the end of input after it is a column past the comment.
    assert_error("GAM t\nP1 ;\n// \u{e9}\u{e9}\nSt [a] $ ;\n", 4, 8, "unexpected character");
    assert_error("GAM t\nP1 ;\nr1 = Ld [a] ;\nexists (P1:r1 = 0 // \u{e9}", 4, 23, "end of input");
}

// ---------------------------------------------------------------------------
// corpus export / load
// ---------------------------------------------------------------------------

#[test]
fn expectation_coverage_gaps_are_reported() {
    let dir = std::env::temp_dir().join(format!("gam-frontend-coverage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_library(&dir).expect("export succeeds");
    // A fully covered corpus has no gaps.
    assert!(Corpus::load(&dir).unwrap().expectation_coverage_gaps().is_empty());
    // Removing a test file leaves its expectations row dangling; adding a
    // test without a row leaves its verdicts unchecked.
    std::fs::remove_file(dir.join("oota.litmus")).expect("remove");
    let extra = LitmusTest::builder("zz-extra", {
        let mut p1 = ThreadProgram::builder(ProcId::new(0));
        p1.load(Reg::new(1), Addr::loc(Loc::new("a")));
        Program::new(vec![p1.build()])
    })
    .expect_reg(ProcId::new(0), Reg::new(1), 0u64)
    .build();
    std::fs::write(dir.join("zz-extra.litmus"), print_litmus(&extra)).expect("write");
    let gaps = Corpus::load(&dir).unwrap().expectation_coverage_gaps();
    assert_eq!(gaps.len(), 2, "{gaps:?}");
    assert!(gaps.iter().any(|g| g.contains("zz-extra") && g.contains("no expectations row")));
    assert!(gaps.iter().any(|g| g.contains("oota") && g.contains("names no test")));
    // A corpus that carries no expectations file opts out entirely.
    std::fs::remove_file(dir.join("expectations.txt")).expect("remove");
    assert!(Corpus::load(&dir).unwrap().expectation_coverage_gaps().is_empty());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn exported_library_corpus_loads_back_identically() {
    let dir = std::env::temp_dir().join(format!("gam-frontend-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let written = export_library(&dir).expect("export succeeds");
    // 29 tests + expectations.txt.
    assert_eq!(written.len(), library::all_tests().len() + 1);
    let corpus = Corpus::load(&dir).expect("exported corpus loads");
    assert_eq!(corpus.tests.len(), library::all_tests().len());
    for expected in library::all_tests() {
        let loaded = corpus
            .tests
            .iter()
            .find(|t| t.test.name() == expected.name())
            .unwrap_or_else(|| panic!("{} missing from the corpus", expected.name()));
        assert_eq!(loaded.test, expected, "{} changed through the corpus", expected.name());
        let expectation = corpus
            .expectation_for(expected.name())
            .unwrap_or_else(|| panic!("{} has no expectation row", expected.name()));
        let reference = gam_verify::expectations::expectation_for(expected.name()).unwrap();
        for model in gam_core::ModelKind::ALL {
            assert_eq!(expectation.allowed(model), reference.allowed(model));
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

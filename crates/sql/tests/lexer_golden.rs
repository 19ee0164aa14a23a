//! Tokenizer goldens: `tokenize` and `normalize` output, pinned byte for
//! byte.
//!
//! `normalize` is the plan cache's key, so a tokenizer rewrite must not move
//! its output by a single byte. The inputs are every SQL statement in the
//! repository's tests, examples and benchmark workloads
//! (`corpus/statements.sql`, one per line), plus the edge cases below. Each
//! input's token list (or error) and normalized text (or error) must equal
//! `expected/lexer_golden.txt`.
//!
//! On a mismatch the whole actual recording is written to the test binary's
//! scratch directory (the path is in the failure message).

use pyro_sql::lexer::tokenize;
use pyro_sql::normalize;

const CORPUS: &str = include_str!("corpus/statements.sql");
const EXPECTED: &str = include_str!("expected/lexer_golden.txt");

/// Inputs the corpus does not exercise: keyword case, operator spellings,
/// placeholder numbering, numeric forms, non-ASCII text, Unicode
/// whitespace, and the error paths (whose offsets count characters, not
/// bytes).
const EDGE_CASES: &[&str] = &[
    "SeLeCt A, b_2 FrOm T wHeRe X = 1",
    "SELECT ABC_Def, _x1 FROM Tab_1",
    "a != b",
    "a!=b",
    "a <= b AND c >= d AND e <> f AND g < h AND i > j",
    "a<=b AND c>=d AND e<>f",
    "<>= =< >< !=!=",
    "x = ? AND y > ? AND ? = z",
    "x = 4",
    "x = 4.0",
    "x = 4.50 AND y = 007 AND z = 5.",
    "x = .5",
    "12abc",
    "1.2.3",
    "99999999999999999999",
    "(),.*=<>+-/",
    "SELECT a FROM t WHERE s = 'héllo wörld ✓'",
    "SELECT a FROM t WHERE s = 'MiXeD Case ?'",
    "SELECT a FROM t WHERE s = 'it''s'",
    "SELECT a FROM t WHERE s = ''",
    "SELECT\u{a0}a\u{2003}FROM\tt\nWHERE\u{3000}a\r\n=\u{85}1",
    "",
    "   \t\n ",
    "'abc",
    "SELECT a FROM t WHERE s = 'oops",
    "SELECT é FROM t",
    "SELECT a FROM t WHERE s = 'é' AND x = Ä",
    "SELECT a FROM t WHERE a = 1; DROP",
    "a ! b",
    "a ; b",
    "SELECT a FROM t WHERE a = 1 -- comment",
];

fn record() -> String {
    let mut out = String::new();
    for sql in CORPUS.lines().chain(EDGE_CASES.iter().copied()) {
        out += &format!(
            "## {sql:?}\ntokens {:?}\nnormalize {:?}\n",
            tokenize(sql),
            normalize(sql)
        );
    }
    out
}

#[test]
fn tokens_and_normalized_text_match_the_recording() {
    let actual = record();
    if actual == EXPECTED {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("lexer_golden.txt");
    std::fs::write(&path, &actual).unwrap();
    let first = actual
        .lines()
        .zip(EXPECTED.lines())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.lines().count().min(EXPECTED.lines().count()));
    panic!(
        "tokenizer output moved at line {}; actual recording written to {}\n  - {}\n  + {}",
        first + 1,
        path.display(),
        EXPECTED.lines().nth(first).unwrap_or("<end>"),
        actual.lines().nth(first).unwrap_or("<end>"),
    );
}

#[test]
fn a_bad_character_is_reported_at_its_character_offset() {
    let err = tokenize("SELECT é FROM t").unwrap_err();
    assert_eq!(
        err.to_string(),
        pyro_common::PyroError::Sql("unexpected character 'é' at offset 7".into()).to_string()
    );
    assert!(
        format!("{err:?}").contains("unexpected character 'é' at offset 7"),
        "{err:?}"
    );
}

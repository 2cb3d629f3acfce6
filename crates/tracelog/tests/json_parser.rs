//! Hostile-input properties of the one JSON parser: whatever bytes
//! arrive (a damaged `POST /sweep` body, a truncated Perfetto file, a
//! megabyte of `[`), `Value::parse` returns `Ok` or a typed `Err` and
//! never panics or overflows the stack.

use cwf_tracelog::json::{validate_chrome_trace, ParseError, Value, MAX_DEPTH};
use proptest::prelude::*;

/// A `POST /sweep` body using every request field.
const SWEEP_BODY: &str = r#"{"benches": ["mcf", "stream"], "kinds": ["rl", "ddr3"], "reads": 500, "quick": true, "cores": 2, "verify": false, "kernel": "event", "seed": 7}"#;

/// A small Perfetto document: metadata, an instant and a complete event.
const PERFETTO_DOC: &str = r#"{"traceEvents": [{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"c\u00e9 0"}},{"ph":"i","pid":1,"tid":0,"name":"a","ts":1.0,"s":"t"},{"ph":"X","pid":1,"tid":0,"name":"b","ts":2.5,"dur":3,"args":{"word":[0,3,-1e2]}}]}"#;

const DOCS: [&str; 2] = [SWEEP_BODY, PERFETTO_DOC];

/// Parse raw bytes the way the server does: UTF-8 first, then JSON.
fn parse_bytes(b: &[u8]) -> Result<Value, ParseError> {
    Value::parse(&String::from_utf8_lossy(b))
}

#[test]
fn the_seed_documents_are_valid() {
    assert!(Value::parse(SWEEP_BODY).is_ok());
    assert!(validate_chrome_trace(PERFETTO_DOC).is_ok());
}

#[test]
fn nesting_is_capped_with_a_typed_error() {
    let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(Value::parse(&ok).is_ok());
    let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
    assert_eq!(Value::parse(&deep), Err(ParseError::TooDeep { at: MAX_DEPTH }));
    let objs = format!("{}1{}", r#"{"k":"#.repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
    assert!(matches!(Value::parse(&objs), Err(ParseError::TooDeep { .. })));
    // Far past any stack's reach, on a spawned thread's smaller stack
    // (a serve connection handler's): still just an error.
    let hostile = "[".repeat(100_000);
    let r = std::thread::spawn(move || Value::parse(&hostile)).join().unwrap();
    assert_eq!(r, Err(ParseError::TooDeep { at: MAX_DEPTH }));
}

#[test]
fn duplicate_keys_are_malformed() {
    assert_eq!(
        Value::parse(r#"{"a": 1, "a": 2}"#),
        Err(ParseError::DuplicateKey { at: 9, key: "a".to_owned() })
    );
    assert!(Value::parse(r#"{"x": {"a": 1}, "a": {"a": 2}}"#).is_ok());
    let e = String::from(Value::parse(r#"[{"k": 0, "k": 0}]"#).unwrap_err());
    assert_eq!(e, "duplicate object key \"k\" at byte 10");
}

#[test]
fn every_truncation_and_single_byte_mutation_is_handled() {
    for doc in DOCS {
        let b = doc.as_bytes();
        for cut in 0..b.len() {
            assert!(parse_bytes(&b[..cut]).is_err(), "prefix of {cut} bytes parsed");
        }
        for pos in 0..b.len() {
            for byte in 0..=u8::MAX {
                let mut m = b.to_vec();
                m[pos] = byte;
                let _ = parse_bytes(&m);
            }
        }
    }
}

proptest! {
    /// Up to two mutations then a cut: still `Ok` or `Err`, never a
    /// panic, and parsing is a pure function of the bytes.
    #[test]
    fn damaged_documents_never_panic(
        doc in 0usize..2,
        edits in prop::collection::vec((0usize..4096, any::<u8>()), 1..3),
        cut in 0usize..4096
    ) {
        let mut b = DOCS[doc].as_bytes().to_vec();
        for (pos, byte) in &edits {
            let n = b.len();
            b[pos % n] = *byte;
        }
        b.truncate(cut % (b.len() + 1));
        prop_assert_eq!(parse_bytes(&b), parse_bytes(&b));
    }
}

//! A minimal JSON parser, and reading a JSONL trace back in.
//!
//! [`Json`] is a small recursive-descent parser for standard JSON — the
//! trace sinks' output, and the `dynp-serve` wire protocol, whose input
//! is untrusted (nesting is bounded by `MAX_DEPTH`); [`parse_jsonl`]
//! lifts trace lines into typed [`ParsedRecord`]s by walking each kind's
//! declared field list (`TraceEvent::read_fields`).

use crate::event::{Field, FieldReader, TraceEvent};
use std::str::Chars;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so unbounded nesting in an untrusted line
/// would overflow the stack; the sinks nest 3 deep and the wire protocol 1.
pub(crate) const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as f64 — all numbers the sinks emit fit).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order (keys the sinks emit are unique).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            chars: text.chars(),
            peeked: None,
            depth: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.peek().is_some() {
            return Err("trailing characters after JSON value".into());
        }
        Ok(value)
    }

    /// Object field lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as f64 (`Num`, or NaN for `Null` — the sinks encode
    /// non-finite scores as `null`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as u64, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object field list.
    pub(crate) fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

struct Parser<'a> {
    chars: Chars<'a>,
    peeked: Option<char>,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&mut self) -> Option<char> {
        if self.peeked.is_none() {
            self.peeked = self.chars.next();
        }
        self.peeked
    }

    fn bump(&mut self) -> Option<char> {
        match self.peeked.take() {
            Some(c) => Some(c),
            None => self.chars.next(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == c => Ok(()),
            Some(got) => Err(format!("expected '{c}', found '{got}'")),
            None => Err(format!("expected '{c}', found end of input")),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.nested(Self::object),
            Some('[') => self.nested(Self::array),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('t') => self.literal("true", Json::Bool(true)),
            Some('f') => self.literal("false", Json::Bool(false)),
            Some('n') => self.literal("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected character '{c}'")),
            None => Err("unexpected end of input".into()),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for expected in word.chars() {
            match self.bump() {
                Some(c) if c == expected => {}
                _ => return Err(format!("invalid literal (expected '{word}')")),
            }
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, String> {
        let mut text = String::new();
        if self.peek() == Some('-') {
            text.push(self.bump().unwrap());
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            text.push(self.bump().unwrap());
        }
        if self.peek() == Some('.') {
            text.push(self.bump().unwrap());
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                text.push(self.bump().unwrap());
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            text.push(self.bump().unwrap());
            if matches!(self.peek(), Some('+' | '-')) {
                text.push(self.bump().unwrap());
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                text.push(self.bump().unwrap());
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}'"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let digit = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("invalid \\u escape")?;
                            code = code * 16 + digit;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err("invalid escape sequence".into()),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.bump();
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => {}
                Some(']') => return Ok(Json::Arr(items)),
                _ => return Err("expected ',' or ']' in array".into()),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(',') => {}
                Some('}') => return Ok(Json::Obj(fields)),
                _ => return Err("expected ',' or '}' in object".into()),
            }
        }
    }
}

/// A [`TraceEvent`] as read back from JSONL: the same type with owned
/// labels.
pub type ParsedEvent = TraceEvent<String>;

/// A [`TraceRecord`](crate::TraceRecord) as read back from JSONL.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedRecord {
    /// Monotone sequence number.
    pub seq: u64,
    /// Simulation time in milliseconds.
    pub sim_ms: u64,
    /// Wall-clock nanoseconds since tracer creation.
    pub wall_ns: u64,
    /// The event payload.
    pub event: ParsedEvent,
}

/// Reads an event's fields out of a parsed JSONL object.
struct JsonFields<'a>(&'a Json);

impl FieldReader<String> for JsonFields<'_> {
    fn label(&mut self, field: &Field) -> Result<String, String> {
        self.0
            .get(field.key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing or non-string field '{}'", field.key))
    }

    fn u64(&mut self, field: &Field) -> Result<u64, String> {
        match (self.0.get(field.key), field.default) {
            (None, Some(default)) => Ok(default.into()),
            (value, _) => value
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer field '{}'", field.key)),
        }
    }

    fn scores(&mut self, field: &Field) -> Result<Vec<(String, f64)>, String> {
        self.0
            .get(field.key)
            .and_then(Json::as_object)
            .ok_or_else(|| format!("missing '{}' object", field.key))?
            .iter()
            .map(|(policy, v)| {
                v.as_f64()
                    .map(|score| (policy.clone(), score))
                    .ok_or_else(|| format!("non-numeric score for '{policy}'"))
            })
            .collect()
    }
}

/// Parses one JSONL line into a [`ParsedRecord`]. Meta lines (`"type":
/// "meta"`, emitted when the ring buffer dropped records) yield
/// `Ok(None)`.
pub(crate) fn parse_record(line: &str) -> Result<Option<ParsedRecord>, String> {
    let obj = Json::parse(line)?;
    let mut fields = JsonFields(&obj);
    let header = |key| Field { key, default: None };
    let tag = fields.label(&header("type"))?;
    if tag == "meta" {
        return Ok(None);
    }
    let event = TraceEvent::read_fields(&tag, &mut fields)?
        .ok_or_else(|| format!("unknown record type '{tag}'"))?;
    Ok(Some(ParsedRecord {
        seq: fields.u64(&header("seq"))?,
        sim_ms: fields.u64(&header("sim_ms"))?,
        wall_ns: fields.u64(&header("wall_ns"))?,
        event,
    }))
}

/// Parses a whole JSONL trace (skipping meta lines and blank lines).
/// Errors carry the 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<ParsedRecord>, String> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_record(line) {
            Ok(Some(rec)) => records.push(rec),
            Ok(None) => {}
            Err(e) => return Err(format!("line {}: {e}", idx + 1)),
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceRecord;
    use crate::sink::{render_jsonl, render_jsonl_line};
    use crate::testing::{samples, GOLDEN_JSONL};
    use dynp_des::SimTime;
    use proptest::prelude::*;

    /// A parsed record as the record it was rendered from, labels owned.
    fn reassemble(parsed: ParsedRecord) -> TraceRecord<String> {
        TraceRecord {
            seq: parsed.seq,
            sim: SimTime::from_millis(parsed.sim_ms),
            wall_ns: parsed.wall_ns,
            event: parsed.event,
        }
    }

    #[test]
    fn parses_scalars_and_nesting() {
        let v = Json::parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\"y"},"d":null,"e":true}"#).unwrap();
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\"y")
        );
        assert!(v.get("d").unwrap().as_f64().unwrap().is_nan());
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // The line that used to overflow the daemon's stack.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn every_kind_round_trips() {
        let snapshot = samples();
        let parsed = parse_jsonl(GOLDEN_JSONL).unwrap();
        assert_eq!(parsed.len(), snapshot.records.len());
        for (parsed, original) in parsed.into_iter().zip(&snapshot.records) {
            assert_eq!(parsed.event.type_tag(), original.event.type_tag());
            assert_eq!(parsed.event.class(), original.event.class());
            // Every value is in the line, so re-rendering what was read
            // compares every field.
            assert_eq!(
                render_jsonl_line(&reassemble(parsed)),
                render_jsonl_line(original)
            );
        }
    }

    #[test]
    fn meta_lines_are_skipped() {
        let mut snapshot = samples();
        snapshot.dropped = 3;
        let text = render_jsonl(&snapshot);
        assert_eq!(text.lines().count(), snapshot.records.len() + 1);
        assert_eq!(parse_jsonl(&text).unwrap().len(), snapshot.records.len());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_jsonl("{\"seq\":0,\"sim_ms\":0,\"wall_ns\":0,\"type\":\"span\",\"name\":\"x\",\"dur_ns\":1}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = parse_record(r#"{"seq":0,"sim_ms":0,"wall_ns":0,"type":"warp"}"#).unwrap_err();
        assert_eq!(err, "unknown record type 'warp'");
    }

    #[test]
    fn null_scores_parse_as_nan() {
        let line = r#"{"seq":0,"sim_ms":0,"wall_ns":0,"type":"decision","old":"FCFS","verdict":"FCFS","rule":"argmin","scores":{"FCFS":null}}"#;
        let rec = parse_record(line).unwrap().unwrap();
        match rec.event {
            ParsedEvent::Decision { scores, .. } => {
                assert_eq!(scores.len(), 1);
                assert!(scores[0].1.is_nan());
            }
            other => panic!("expected decision, got {other:?}"),
        }
    }

    #[test]
    fn traces_from_before_the_fan_out_read_as_one_worker() {
        let line = r#"{"seq":0,"sim_ms":0,"wall_ns":0,"type":"plan","policy":"SJF","queue_depth":4,"profile_points":9,"dur_ns":777}"#;
        let rec = parse_record(line).unwrap().unwrap();
        assert!(matches!(
            rec.event,
            ParsedEvent::PlanBuilt { workers: 1, .. }
        ));
        // Only `workers` has a default.
        assert!(parse_record(&line.replace(",\"queue_depth\":4", "")).is_err());
    }

    /// Supplies field values from pre-drawn pools, cycling through them.
    struct Pools {
        labels: Vec<String>,
        numbers: Vec<u64>,
        scores: Vec<(String, f64)>,
        next: usize,
    }

    impl Pools {
        fn pick<T: Clone>(next: &mut usize, pool: &[T]) -> T {
            *next += 1;
            pool[*next % pool.len()].clone()
        }
    }

    impl FieldReader<String> for Pools {
        fn label(&mut self, _: &Field) -> Result<String, String> {
            Ok(Self::pick(&mut self.next, &self.labels))
        }
        fn u64(&mut self, _: &Field) -> Result<u64, String> {
            Ok(Self::pick(&mut self.next, &self.numbers))
        }
        fn u32(&mut self, field: &Field) -> Result<u32, String> {
            Ok(self.u64(field)? as u32)
        }
        fn scores(&mut self, _: &Field) -> Result<Vec<(String, f64)>, String> {
            Ok(self.scores.clone())
        }
    }

    /// Labels that stress the escaper: quotes, backslashes, control
    /// characters, JSON punctuation, non-BMP text.
    fn label() -> impl Strategy<Value = String> {
        const ALPHABET: [&str; 16] = [
            "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1b}", "\u{7f}", "{", "}", ":", ",", "é",
            "\u{2028}", "𝄞", "SJF",
        ];
        proptest::collection::vec(0usize..ALPHABET.len(), 0..6)
            .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
    }

    fn score() -> impl Strategy<Value = f64> {
        prop_oneof![
            // Any bit pattern: subnormals, both zeros, infinities, NaNs.
            (0u64..u64::MAX).prop_map(f64::from_bits),
            -1e6f64..1e6,
            Just(f64::INFINITY),
            Just(f64::NAN),
        ]
    }

    proptest! {
        #[test]
        fn arbitrary_records_round_trip(
            kind in 0usize..1000,
            labels in proptest::collection::vec(label(), 1..5),
            // JSON numbers are doubles: integers are exact up to 2^53.
            numbers in proptest::collection::vec(0u64..(1 << 53) + 1, 1..8),
            scores in proptest::collection::vec((label(), score()), 0..5),
        ) {
            let kinds = samples().records;
            let tag = kinds[kind % kinds.len()].event.type_tag();
            let mut pools = Pools { labels, numbers, scores, next: kind };
            let header = Field { key: "", default: None };
            let mut original = TraceRecord {
                seq: pools.u64(&header).unwrap(),
                sim: SimTime::from_millis(pools.u64(&header).unwrap()),
                wall_ns: pools.u64(&header).unwrap(),
                event: TraceEvent::read_fields(tag, &mut pools).unwrap().unwrap(),
            };
            let line = render_jsonl_line(&original);
            prop_assert!(!line.contains('\n'), "a record is one line: {line:?}");
            let parsed = reassemble(parse_record(&line).unwrap().unwrap());
            // JSON has no non-finite number: the sink writes `null`, which
            // reads back as NaN.
            if let TraceEvent::Decision { scores, .. } = &mut original.event {
                for score in scores.iter_mut().filter(|s| !s.1.is_finite()) {
                    score.1 = f64::NAN;
                }
            }
            // Debug prints a float's shortest round-trip form, so equal
            // text means equal bits — and NaN, unlike ==, equals itself.
            prop_assert_eq!(format!("{parsed:?}"), format!("{original:?}"));
        }
    }
}

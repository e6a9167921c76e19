//! Decoder strictness: every field of a checkpoint is required and typed.
//!
//! Starting from one rich checkpoint — a stressed mission mid-run with
//! reliability, fault injection, integrity verification, a trace and
//! metrics all live — the JSON document is damaged one spot at a time:
//! first every object key at every depth is deleted in turn, then every
//! scalar is replaced by the string `"x"`. Each damaged document must be
//! refused with `CheckpointError::Shape`: never accepted, never a panic.
//!
//! The only keys that may go missing are the metric names inside
//! `metrics.counters`, `metrics.gauges` and `metrics.histograms`: those
//! maps hold whatever metrics had been recorded, so a shorter map is still
//! a well-formed checkpoint.
//!
//! Refusals are pinned, not just counted. The damage sweep truncates the
//! document at every byte and substitutes each of a fixed set of bytes at
//! every offset; the outcome of every damaged document (accepted, a JSON
//! syntax error with its offset and message, or a shape error with its
//! message) is hashed, as are the messages of the deleted-key and
//! retyped-scalar refusals. The mutation sweep resumes every single-digit
//! mutation of two stressed captures, one with carts in motion, and runs it
//! to the end: each must be refused with a typed error or complete, never
//! panic.

mod json_dom;

use std::collections::BTreeMap;

use dhl_obs::json;
use dhl_sim::{
    Checkpoint, CheckpointError, DhlSystem, FaultSpec, IntegritySpec, ReliabilitySpec, SimConfig,
};
use dhl_storage::fnv1a_64;
use dhl_units::{Bytes, Seconds};
use json_dom::JsonValue;

fn rich_checkpoint() -> JsonValue {
    let mut cfg = SimConfig::paper_default();
    cfg.reliability = Some(ReliabilitySpec {
        seed: 7,
        ..ReliabilitySpec::typical()
    });
    cfg.faults = Some(FaultSpec::stress());
    cfg.integrity = Some(IntegritySpec::typical());
    let mut sys = DhlSystem::new(cfg).expect("valid configuration");
    sys.enable_trace(24);
    sys.begin_bulk_transfer(Bytes::from_petabytes(2.0))
        .expect("begin");
    // At 12 s two carts are in flight and two are verifying at the rack,
    // so the sweeps damage `ActiveMovement`s, their `MovementCost`s and
    // `[from, to]` locations as well as pending verifies.
    let _ = sys.run_until(Seconds::new(12.0)).expect("run");
    let doc = json_dom::parse(&sys.checkpoint().to_json()).expect("checkpoint JSON parses");
    let carts = doc.get("carts").expect("carts");
    let in_flight = |column: &str| {
        let column = carts.get(column).and_then(JsonValue::as_array);
        let entries = column.expect("per-cart column").iter();
        entries.filter(|v| !matches!(v, JsonValue::Null)).count()
    };
    assert!(in_flight("movements") > 0, "no cart in motion");
    assert!(in_flight("verify") > 0, "no verify pending");
    doc
}

/// A step from a value to one of its children.
#[derive(Clone, Debug)]
enum Step {
    Key(String),
    Index(usize),
}

fn child_mut<'a>(v: &'a mut JsonValue, step: &Step) -> &'a mut JsonValue {
    match (v, step) {
        (JsonValue::Object(map), Step::Key(k)) => map.get_mut(k).expect("key"),
        (JsonValue::Array(items), Step::Index(i)) => &mut items[*i],
        (v, step) => panic!("no {step:?} in {v:?}"),
    }
}

fn at_mut<'a>(mut v: &'a mut JsonValue, path: &[Step]) -> &'a mut JsonValue {
    for step in path {
        v = child_mut(v, step);
    }
    v
}

fn is_metric_map(path: &[Step]) -> bool {
    matches!(
        path,
        [Step::Key(m), Step::Key(kind)]
            if m == "metrics" && ["counters", "gauges", "histograms"].contains(&kind.as_str())
    )
}

/// Every path below `v`, in document order, tagged by whether it names an
/// object key (deletable) and whether it holds a scalar (retypable).
fn walk(v: &JsonValue, path: &mut Vec<Step>, out: &mut Vec<(Vec<Step>, bool, bool)>) {
    match v {
        JsonValue::Object(map) => {
            let deletable = !is_metric_map(path);
            for (k, child) in map {
                path.push(Step::Key(k.clone()));
                out.push((path.clone(), deletable, is_scalar(child)));
                walk(child, path, out);
                path.pop();
            }
        }
        JsonValue::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                path.push(Step::Index(i));
                out.push((path.clone(), false, is_scalar(child)));
                walk(child, path, out);
                path.pop();
            }
        }
        _ => {}
    }
}

fn is_scalar(v: &JsonValue) -> bool {
    !matches!(v, JsonValue::Object(_) | JsonValue::Array(_))
}

fn assert_refused(doc: &JsonValue, what: &str) {
    let text = doc.to_json_string();
    match std::panic::catch_unwind(|| Checkpoint::from_json(&text)) {
        Ok(Err(CheckpointError::Shape(_))) => {}
        Ok(Err(other)) => panic!("{what}: expected a Shape error, got {other:?}"),
        Ok(Ok(_)) => panic!("{what}: damaged checkpoint was accepted"),
        Err(_) => panic!("{what}: decoder panicked"),
    }
}

#[test]
fn the_undamaged_document_decodes() {
    let doc = rich_checkpoint();
    let text = doc.to_json_string();
    let cp = Checkpoint::from_json(&text).expect("decode");
    assert_eq!(cp.to_json(), text);
}

#[test]
fn every_deleted_key_is_refused() {
    let doc = rich_checkpoint();
    let mut paths = Vec::new();
    walk(&doc, &mut Vec::new(), &mut paths);
    let mut deletions = 0;
    for (path, deletable, _) in &paths {
        if !deletable {
            continue;
        }
        let (last, parent) = path.split_last().expect("non-empty path");
        let Step::Key(key) = last else { unreachable!() };
        let mut damaged = doc.clone();
        let JsonValue::Object(map) = at_mut(&mut damaged, parent) else {
            unreachable!()
        };
        map.remove(key);
        assert_refused(&damaged, &format!("deleting {path:?}"));
        deletions += 1;
    }
    // The capture must be rich enough to exercise the nested decoders:
    // carts in motion, trace events, histograms and fault counters.
    assert!(deletions > 192, "only {deletions} keys deleted");
}

#[test]
fn every_retyped_scalar_is_refused() {
    let doc = rich_checkpoint();
    let mut paths = Vec::new();
    walk(&doc, &mut Vec::new(), &mut paths);
    let mut retypes = 0;
    for (path, _, scalar) in &paths {
        if !scalar {
            continue;
        }
        let mut damaged = doc.clone();
        *at_mut(&mut damaged, path) = JsonValue::String("x".into());
        assert_refused(&damaged, &format!("retyping {path:?}"));
        retypes += 1;
    }
    assert!(retypes > 231, "only {retypes} scalars retyped");
}

/// What `Checkpoint::from_json` made of `text`, as one line.
fn outcome(text: &str) -> String {
    match std::panic::catch_unwind(|| Checkpoint::from_json(text)) {
        Ok(Ok(_)) => "accepted".into(),
        Ok(Err(CheckpointError::Json(e))) => format!("json {} {}", e.offset, e.message),
        Ok(Err(CheckpointError::Shape(msg))) => format!("shape {msg}"),
        Err(_) => "panic".into(),
    }
}

/// The bytes substituted at every offset by the damage sweep: digits and
/// number syntax that may keep the document well-formed, and structural
/// bytes that mostly break it.
const SUBSTITUTES: &[u8; 8] = b"09.e-x\"}";

/// FNV-1a over the outcome of every damaged document of the sweep.
const DAMAGE_SWEEP_HASH: u64 = 0x6c76_29a0_7524_9fe1;

/// FNV-1a over the messages of the deleted-key and retyped-scalar refusals.
const REFUSAL_MESSAGES_HASH: u64 = 0x1c6d_f41c_f4bb_1043;

#[test]
fn damage_sweep_outcomes_match_their_pinned_hash() {
    let text = rich_checkpoint().to_json_string();
    let mut log = String::new();
    let mut record = |damaged: &str| {
        log.push_str(&outcome(damaged));
        log.push('\n');
    };
    for end in 0..text.len() {
        record(&text[..end]);
    }
    let mut bytes = text.clone().into_bytes();
    for i in 0..bytes.len() {
        let original = bytes[i];
        for &b in SUBSTITUTES.iter().filter(|&&b| b != original) {
            bytes[i] = b;
            record(std::str::from_utf8(&bytes).expect("ASCII document"));
        }
        bytes[i] = original;
    }
    let count = |prefix: &str| log.lines().filter(|l| l.starts_with(prefix)).count();
    let (documents, panics) = (log.lines().count(), count("panic"));
    assert_eq!(
        panics, 0,
        "{panics} of {documents} damaged documents panicked"
    );
    let hash = fnv1a_64(log.as_bytes());
    assert!(
        hash == DAMAGE_SWEEP_HASH,
        "{documents} documents ({} accepted, {} json, {} shape): hash 0x{hash:016x} != pinned 0x{DAMAGE_SWEEP_HASH:016x}",
        count("accepted"),
        count("json"),
        count("shape"),
    );
}

#[test]
fn refusal_messages_match_their_pinned_hash() {
    let doc = rich_checkpoint();
    let mut paths = Vec::new();
    walk(&doc, &mut Vec::new(), &mut paths);
    let mut log = String::new();
    for (path, deletable, _) in &paths {
        if let (true, Some((Step::Key(key), parent))) = (*deletable, path.split_last()) {
            let mut damaged = doc.clone();
            if let JsonValue::Object(map) = at_mut(&mut damaged, parent) {
                map.remove(key);
            }
            log.push_str(&outcome(&damaged.to_json_string()));
            log.push('\n');
        }
    }
    for (path, _, scalar) in &paths {
        if *scalar {
            let mut damaged = doc.clone();
            *at_mut(&mut damaged, path) = JsonValue::String("x".into());
            log.push_str(&outcome(&damaged.to_json_string()));
            log.push('\n');
        }
    }
    let hash = fnv1a_64(log.as_bytes());
    assert!(
        hash == REFUSAL_MESSAGES_HASH,
        "{} refusals: hash 0x{hash:016x} != pinned 0x{REFUSAL_MESSAGES_HASH:016x}",
        log.lines().count(),
    );
}

/// Writes `v` with every object's keys in reverse order and whitespace
/// between all tokens.
fn write_reordered(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Object(map) => {
            out.push_str("{\n ");
            for (i, (key, value)) in map.iter().rev().enumerate() {
                if i > 0 {
                    out.push_str(" ,\r\n ");
                }
                json::write_escaped(out, key);
                out.push_str(" :\t");
                write_reordered(value, out);
            }
            out.push_str("\n}");
        }
        JsonValue::Array(items) => {
            out.push_str("[ ");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(" , ");
                }
                write_reordered(item, out);
            }
            out.push_str(" ]");
        }
        scalar => scalar.write_to(out),
    }
}

#[test]
fn reordered_keys_and_whitespace_decode_to_an_equal_checkpoint() {
    let doc = rich_checkpoint();
    let text = doc.to_json_string();
    let mut reordered = String::new();
    write_reordered(&doc, &mut reordered);
    assert_ne!(reordered, text);
    let cp = Checkpoint::from_json(&reordered).expect("decode reordered");
    assert_eq!(cp, Checkpoint::from_json(&text).expect("decode"));
    assert_eq!(cp.to_json(), text);
}

/// A stressed capture the mutation sweep damages: reliability, fault
/// injection, integrity verification and a trace, `at` seconds into the
/// mission.
fn stressed_capture(at: f64) -> (SimConfig, String) {
    let mut cfg = SimConfig::paper_default();
    cfg.reliability = Some(ReliabilitySpec {
        seed: 7,
        ..ReliabilitySpec::typical()
    });
    cfg.faults = Some(FaultSpec::stress());
    cfg.integrity = Some(IntegritySpec::typical());
    let mut sys = DhlSystem::new(cfg.clone()).expect("valid configuration");
    sys.enable_trace(64);
    sys.begin_bulk_transfer(Bytes::from_petabytes(2.0))
        .expect("begin");
    let _ = sys.run_until(Seconds::new(at)).expect("run");
    (cfg, sys.checkpoint().to_json())
}

/// Decodes, resumes and runs `text` to the end; `Ok(true)` when it
/// completed, `Ok(false)` when it was refused with a typed error.
fn resume_to_the_end(cfg: &SimConfig, text: &str) -> bool {
    let Ok(cp) = Checkpoint::from_json(text) else {
        return false;
    };
    let Ok(mut sys) = DhlSystem::resume(cfg.clone(), &cp) else {
        return false;
    };
    match sys.run_until(Seconds::new(f64::INFINITY)) {
        Ok(_) => {
            let _ = sys.finish();
            true
        }
        Err(_) => false,
    }
}

/// At 30 s every cart is docked; at 12 s two are in motion.
#[test]
fn every_digit_mutation_is_refused_or_runs_to_the_end() {
    for (at, moving) in [(30.0, 0), (12.0, 2)] {
        sweep_digit_mutations(at, moving);
    }
}

fn sweep_digit_mutations(at: f64, moving: usize) {
    let (cfg, text) = stressed_capture(at);
    let doc = json_dom::parse(&text).expect("checkpoint JSON parses");
    let movements = doc.get("carts").and_then(|c| c.get("movements"));
    let entries = movements.and_then(JsonValue::as_array).expect("column");
    let in_motion = entries.iter().filter(|m| **m != JsonValue::Null).count();
    assert_eq!(in_motion, moving, "carts in motion at {at} s");
    let (mut completed, mut refused, mut panicked) = (0, 0, Vec::new());
    let mut bytes = text.clone().into_bytes();
    for i in 0..bytes.len() {
        let original = bytes[i];
        if !original.is_ascii_digit() {
            continue;
        }
        for digit in (b'0'..=b'9').filter(|&d| d != original) {
            bytes[i] = digit;
            let damaged = std::str::from_utf8(&bytes).expect("ASCII document");
            match std::panic::catch_unwind(|| resume_to_the_end(&cfg, damaged)) {
                Ok(true) => completed += 1,
                Ok(false) => refused += 1,
                Err(_) => panicked.push((i, digit as char)),
            }
        }
        bytes[i] = original;
    }
    let mutations = completed + refused + panicked.len();
    assert!(
        panicked.is_empty(),
        "{mutations} mutations at {at} s: {completed} completed, {refused} refused, \
         panics at (byte offset, digit) {panicked:?}"
    );
    assert!(mutations > 2_000, "only {mutations} digits mutated");
    eprintln!("{mutations} mutations at {at} s: {completed} completed, {refused} refused");
}

#[test]
fn deep_nesting_is_refused_without_exhausting_the_stack() {
    for depth in [10_000, 100_000] {
        match Checkpoint::from_json(&"[".repeat(depth)) {
            Err(CheckpointError::Json(e)) => {
                assert_eq!(e.offset, json::MAX_DEPTH, "{depth} deep");
                assert!(e.message.contains("nesting"), "{}", e.message);
            }
            other => panic!("{depth} deep: expected a Json error, got {other:?}"),
        }
    }
}

#[test]
fn two_to_the_64_is_not_a_counter() {
    let text = rich_checkpoint().to_json_string();
    // The movement counter, not the fleet's column of that name.
    let start = (text.match_indices("\"movements\":"))
        .map(|(at, key)| at + key.len())
        .find(|&at| text[at..].starts_with(|c: char| c.is_ascii_digit()))
        .expect("movements counter");
    let end = start + text[start..].find(',').expect("next key");
    for wide in ["18446744073709551616", "1.8446744073709552e19"] {
        let damaged = format!("{}{wide}{}", &text[..start], &text[end..]);
        match Checkpoint::from_json(&damaged) {
            Err(CheckpointError::Shape(msg)) => assert_eq!(msg, "`movements`: not a u64"),
            other => panic!("{wide}: expected a Shape error, got {other:?}"),
        }
    }
    // The largest f64 below 2^64 still reads exactly.
    let largest = format!("{}18446744073709549568.0{}", &text[..start], &text[end..]);
    assert!(Checkpoint::from_json(&largest).is_ok());
}

#[test]
fn many_members_before_a_tag_read_like_few() {
    let text = rich_checkpoint().to_json_string();
    let at = text.find("\"kind\":{").expect("a trace event") + "\"kind\":{".len();
    let insert = |members: &str| format!("{}{members}{}", &text[..at], &text[at..]);
    let junk = "\"a\":0,\"b\":[1],\"c\":{},\"d\":null,\"e\":\"x\",";
    let cp = Checkpoint::from_json(&text).expect("decode");
    assert_eq!(Checkpoint::from_json(&insert(junk)).expect("decode"), cp);
    for (members, message) in [
        (
            format!("{junk}\"t\":\"docked\","),
            "`trace`: `events`: `kind`: repeated key `t`",
        ),
        (
            format!("{junk}\"cart\":\"x\","),
            "`trace`: `events`: `kind`: `cart`: not a u64",
        ),
    ] {
        match Checkpoint::from_json(&insert(&members)) {
            Err(CheckpointError::Shape(msg)) => assert_eq!(msg, message),
            other => panic!("{message}: expected a Shape error, got {other:?}"),
        }
    }
}

#[test]
fn repeated_keys_are_refused() {
    let text = rich_checkpoint().to_json_string();
    let insert = |before: &str, member: &str| {
        let at = text.find(before).expect("anchor");
        format!("{}{member}{}", &text[..at], &text[at..])
    };
    for (damaged, message) in [
        (insert("\"abandoned\"", "\"now\":1,"), "repeated key `now`"),
        (
            insert("\"connector_cycles\"", "\"matings\":[],"),
            "`carts`: repeated key `matings`",
        ),
        (
            insert("\"cart\":0,\"t\":\"verify_done\"", "\"t\":\"arrived\","),
            "`queue`: repeated key `t`",
        ),
        (
            insert("\"sim.deliveries\"", "\"sim.deliveries\":0,"),
            "`metrics`: `counters`: repeated key `sim.deliveries`",
        ),
    ] {
        match Checkpoint::from_json(&damaged) {
            Err(CheckpointError::Shape(msg)) => assert_eq!(msg, message),
            other => panic!("{message}: expected a Shape error, got {other:?}"),
        }
    }
}

/// The text of `doc` with the value at `path` replaced by `raw`, which need
/// not be well-formed JSON or free of repeated keys.
fn splice(doc: &JsonValue, path: &[Step], raw: &str) -> String {
    const MARK: &str = "\u{1}splice";
    let mut marked = doc.clone();
    *at_mut(&mut marked, path) = JsonValue::String(MARK.into());
    let mut quoted = String::new();
    json::write_escaped(&mut quoted, MARK);
    marked.to_json_string().replacen(&quoted, raw, 1)
}

/// An object written from `(key, value text)` members in the given order.
fn object_text(members: &[(String, String)]) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Damaged forms of the enum object with canonical `members`: its `"t"`
/// tag moved, missing, repeated, unknown or not a string; a field of
/// another variant added; a malformed field next to each of those.
fn damaged_enum_objects(members: &[(String, String)]) -> Vec<String> {
    let member = |k: &str, v: &str| (k.to_string(), v.to_string());
    let t = members.iter().position(|(k, _)| k == "t").expect("tag");
    let tag = members[t].clone();
    let fields: Vec<_> = members.iter().filter(|(k, _)| k != "t").cloned().collect();
    let mut bad = fields.clone();
    if let Some(first) = bad.first_mut() {
        first.1 = "\"x\"".into();
    }
    let mut out = vec![
        [vec![tag.clone()], fields.clone()].concat(),
        [fields.clone(), vec![tag.clone()]].concat(),
        fields.clone(),
        [vec![tag.clone()], bad.clone()].concat(),
        [bad.clone(), vec![tag.clone()]].concat(),
        bad.clone(),
        [bad.clone(), vec![tag.clone(), tag.clone()]].concat(),
        [vec![tag.clone()], bad.clone(), vec![tag.clone()]].concat(),
        [bad.clone(), vec![member("t", "\"nope\"")]].concat(),
        [
            vec![member("t", "\"nope\"")],
            bad.clone(),
            vec![tag.clone()],
        ]
        .concat(),
        [vec![member("t", "1")], bad.clone(), vec![tag.clone()]].concat(),
    ];
    for (first, second) in [
        (true, tag.1.as_str()),
        (true, "\"moving\""),
        (true, "1"),
        (false, &tag.1),
        (false, "1"),
    ] {
        let mut m = members.to_vec();
        m.insert(if first { 0 } else { m.len() }, member("t", second));
        out.push(m);
    }
    let mut out: Vec<String> = out.iter().map(|m| object_text(m)).collect();
    for value in [
        "\"nope\"",
        "\"\"",
        "1",
        "null",
        "true",
        "[\"docked\"]",
        "{\"t\":\"docked\"}",
    ] {
        let mut m = members.to_vec();
        m[t].1 = value.into();
        out.push(object_text(&m));
    }
    for other in [
        "cart", "endpoint", "from", "to", "track", "shards", "downtime",
    ] {
        if members.iter().any(|(k, _)| k == other) {
            let mut m = members.to_vec();
            m.push(member(other, "0"));
            out.push(object_text(&m));
            continue;
        }
        for value in ["0", "\"x\"", "[1,{}]"] {
            for at in [0, t, members.len()] {
                let mut m = members.to_vec();
                m.insert(at, member(other, value));
                out.push(object_text(&m));
            }
        }
    }
    out
}

/// Damaged forms of the tuple with entry texts `items`: one entry short or
/// one entry long, each also with every entry in turn malformed.
fn damaged_tuples(items: &[String]) -> Vec<String> {
    let short = items[..items.len() - 1].to_vec();
    let long = [items.to_vec(), vec!["0".into()]].concat();
    let mut out = vec![Vec::new(), short.clone(), long.clone()];
    for base in [short, long, items.to_vec()] {
        for i in 0..base.len() {
            let mut bad = base.clone();
            bad[i] = "\"x\"".into();
            out.push(bad);
        }
    }
    out.iter()
        .map(|items| format!("[{}]", items.join(",")))
        .collect()
}

/// One edit of an enum object's members.
type Edit = Box<dyn Fn(&mut BTreeMap<String, JsonValue>)>;

/// FNV-1a over the outcomes of the enum-object, tuple and reordered-key
/// damage in `enum_and_tuple_refusals_match_their_pinned_hash`.
const READ_PATH_REFUSALS_HASH: u64 = 0xcc87_de67_47bd_a258;

#[test]
fn enum_and_tuple_refusals_match_their_pinned_hash() {
    let doc = rich_checkpoint();
    let mut paths = Vec::new();
    walk(&doc, &mut Vec::new(), &mut paths);
    let at = |path: &[Step]| {
        path.iter().fold(&doc, |v, step| match (v, step) {
            (JsonValue::Object(map), Step::Key(k)) => &map[k],
            (JsonValue::Array(items), Step::Index(i)) => &items[*i],
            _ => unreachable!(),
        })
    };
    // The first enum object of each tag and key set, the first queue
    // entry, the first histogram bucket and the first pending launch.
    let mut shapes = std::collections::BTreeSet::new();
    let mut enums = Vec::new();
    let (mut entry, mut bucket, mut launch) = (None, None, None);
    for (path, _, _) in &paths {
        match (at(path), path.as_slice()) {
            (JsonValue::Object(map), _)
                if map.contains_key("t")
                    && shapes.insert(format!("{:?} {:?}", map.keys(), map["t"])) =>
            {
                enums.push(path.clone());
            }
            (JsonValue::Array(_), [Step::Key(q), Step::Index(0)]) if q == "queue" => {
                entry = Some(path.clone());
            }
            (JsonValue::Array(_), [Step::Key(p), Step::Index(0)]) if p == "pending" => {
                launch = Some(path.clone());
            }
            (JsonValue::Array(_), [.., Step::Key(b), Step::Index(0)]) if b == "buckets" => {
                bucket = bucket.or(Some(path.clone()));
            }
            _ => {}
        }
    }
    let tuples: Vec<_> = [entry, bucket, launch].into_iter().flatten().collect();
    assert!(
        enums.len() >= 6 && tuples.len() == 3,
        "{enums:?} {tuples:?}"
    );
    let mut log = String::new();
    let mut record = |text: &str| {
        log.push_str(&outcome(text));
        log.push('\n');
    };
    for path in &enums {
        let JsonValue::Object(map) = at(path) else {
            unreachable!()
        };
        let members: Vec<_> = map
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json_string()))
            .collect();
        for raw in damaged_enum_objects(&members) {
            record(&splice(&doc, path, &raw));
        }
        // Damage a JSON tree can hold, written with reversed keys and
        // whitespace between all tokens.
        let mut edits: Vec<Edit> = vec![
            Box::new(|m| drop(m.remove("t"))),
            Box::new(|m| drop(m.insert("t".into(), JsonValue::String("nope".into())))),
            Box::new(|m| drop(m.insert("t".into(), JsonValue::UInt(1)))),
            Box::new(|m| drop(m.insert("track".into(), JsonValue::UInt(0)))),
        ];
        if let Some(first) = members.iter().find(|(k, _)| k != "t") {
            let key = first.0.clone();
            edits.push(Box::new(move |m| {
                m.insert(key.clone(), JsonValue::String("x".into()));
            }));
        }
        for edit in &edits {
            let mut damaged = doc.clone();
            let JsonValue::Object(map) = at_mut(&mut damaged, path) else {
                unreachable!()
            };
            edit(map);
            let mut text = String::new();
            write_reordered(&damaged, &mut text);
            record(&text);
        }
    }
    for path in &tuples {
        let JsonValue::Array(items) = at(path) else {
            unreachable!()
        };
        let items: Vec<_> = items.iter().map(JsonValue::to_json_string).collect();
        for raw in damaged_tuples(&items) {
            record(&splice(&doc, path, &raw));
            let mut damaged = doc.clone();
            *at_mut(&mut damaged, path) = json_dom::parse(&raw).expect("well-formed tuple");
            let mut text = String::new();
            write_reordered(&damaged, &mut text);
            record(&text);
        }
    }
    let count = |prefix: &str| log.lines().filter(|l| l.starts_with(prefix)).count();
    assert_eq!(count("panic"), 0, "{log}");
    let hash = fnv1a_64(log.as_bytes());
    assert!(
        hash == READ_PATH_REFUSALS_HASH,
        "{} documents ({} accepted, {} json, {} shape): hash 0x{hash:016x} != pinned \
         0x{READ_PATH_REFUSALS_HASH:016x}",
        log.lines().count(),
        count("accepted"),
        count("json"),
        count("shape"),
    );
}

// The DOM these sweeps damage documents through: it writes back what it
// read, and refuses exactly what a `Reader` walk refuses.

#[test]
fn serialiser_round_trips_through_the_parser() {
    let src = r#"{"b":[1,false,null,"x\ny",18446744073709551615],"a":{"nested":-2.5}}"#;
    let v = json_dom::parse(src).unwrap();
    let out = v.to_json_string();
    assert_eq!(json_dom::parse(&out).unwrap(), v);
    // Keys come back sorted (BTreeMap order), and u64::MAX exact.
    assert!(out.starts_with("{\"a\""), "{out}");
    assert!(out.contains(",18446744073709551615]"), "{out}");
}

#[test]
fn skipping_refuses_exactly_what_parse_refuses() {
    for text in [
        "",
        "{",
        "[1,",
        "{\"a\"}",
        "tru",
        "1 2",
        "\"unterminated",
        "[1,]",
        "{,}",
        "{\"a\":1,}",
        "[1 2]",
        "{\"a\" 1}",
        "-",
        "1e",
        "\"\\q\"",
        "\"\\u12\"",
        "nul",
    ] {
        let mut r = json::Reader::new(text);
        let skipped = r.skip_value().and_then(|()| r.finish());
        assert_eq!(
            skipped.unwrap_err(),
            json_dom::parse(text).unwrap_err(),
            "{text:?}"
        );
    }
}

#[test]
fn parse_keeps_the_last_of_repeated_keys() {
    let v = json_dom::parse(r#"{"a": 1, "a": 2}"#).unwrap();
    assert_eq!(v.get("a"), Some(&JsonValue::UInt(2)));
}

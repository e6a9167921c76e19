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

use dhl_obs::json::{self, JsonValue};
use dhl_sim::{
    Checkpoint, CheckpointError, DhlSystem, FaultSpec, IntegritySpec, ReliabilitySpec, SimConfig,
};
use dhl_units::{Bytes, Seconds};

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
    let _ = sys.run_until(Seconds::new(187.9)).expect("run");
    json::parse(&sys.checkpoint().to_json()).expect("checkpoint JSON parses")
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
    assert!(deletions > 250, "only {deletions} keys deleted");
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
    assert!(retypes > 250, "only {retypes} scalars retyped");
}

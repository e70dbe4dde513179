//! The incremental-analysis codec: fingerprints and wire format for the
//! per-function artifacts persisted in an [`atomig_cache::CacheStore`].
//!
//! The store itself is a generic blob store; everything AtoMig-specific
//! lives here. A cached artifact is the [`FuncDetect`] a detection run
//! produced for one function — annotation and hint marks, spinloops,
//! optimistic loops — under one exact analysis input. The fingerprint
//! captures that input completely:
//!
//! * the **config seed** — every [`AtomigConfig`] knob that changes what
//!   detection computes (stage, alias backend and exploration, inliner
//!   settings, pointee buddies, barrier hints, volatile blacklist), plus
//!   [`ARTIFACT_VERSION`] so schema changes invalidate wholesale. `jobs`
//!   and `clock` are deliberately excluded: they never change decisions
//!   (the deterministic-merge contract).
//! * the **module seed** — struct layouts and globals, which alias keys
//!   and annotation scanning depend on. A one-function edit leaves this
//!   unchanged, so only that function's fingerprint moves.
//! * the **function body** — the printed post-inline MIR. The printer
//!   embeds instruction ids and source spans, so an identical print
//!   guarantees identical `InstId`s: artifacts can store bare ids and
//!   decoding can rebuild every [`MemLoc`] from the live function.
//!
//! Decoding is fail-closed: any malformed payload, unknown instruction
//! id, or out-of-range index yields `None` and the caller re-analyzes —
//! a corrupt cache can cost time, never correctness.

use crate::annotations::{loc_of, Mark};
use crate::config::AtomigConfig;
use crate::json::{parse, Value};
use crate::pipeline::{FuncDetect, OptDetect, SpinDetect};
use atomig_mir::{Function, InstId, MemLoc, Module};

/// Version of the artifact schema below. Folded into the config seed so
/// a bump invalidates every existing fingerprint.
pub const ARTIFACT_VERSION: u32 = 1;

/// The decision-relevant configuration knobs, serialized canonically.
pub fn config_seed(cfg: &AtomigConfig) -> String {
    format!(
        "artifact-v{};stage={:?};alias={};exploration={};inline={};inline_opts={:?};\
         pointee={};hints={};blacklist={:?}",
        ARTIFACT_VERSION,
        cfg.stage,
        cfg.alias_mode.name(),
        cfg.alias_exploration,
        cfg.inline,
        cfg.inline_options,
        cfg.pointee_buddies,
        cfg.compiler_barrier_hints,
        cfg.volatile_blacklist,
    )
}

/// The module-level context a function's detection depends on beyond its
/// own body: struct layouts (field offsets behind alias keys) and global
/// declarations. Editing one function leaves this seed unchanged.
pub fn module_seed(m: &Module) -> String {
    format!("{:?}\n{:?}", m.structs, m.globals)
}

/// The combined non-body fingerprint input, computed once per module.
pub fn full_seed(cfg: &AtomigConfig, m: &Module) -> String {
    format!("{}\n{}", config_seed(cfg), module_seed(m))
}

/// The cache key of one function under one analysis input.
pub fn func_fingerprint(seed: &str, body: &str) -> atomig_cache::Fingerprint {
    atomig_cache::Fingerprint::of(&[seed, body])
}

/// Serializes a detection result. Only instruction ids, spans, and flags
/// are stored; locations are rebuilt from the function on decode.
pub(crate) fn encode_detect(det: &FuncDetect) -> String {
    let ann: Vec<Value> = det
        .ann_marks
        .iter()
        .map(|(mk, vol)| Value::Arr(vec![(mk.inst.0 as usize).into(), (*vol).into()]))
        .collect();
    let hints: Vec<Value> = det
        .hint_marks
        .iter()
        .map(|mk| (mk.inst.0 as usize).into())
        .collect();
    let spins: Vec<Value> = det
        .spins
        .iter()
        .map(|s| {
            Value::obj(vec![
                (
                    "controls",
                    Value::Arr(s.controls.iter().map(|c| (c.0 as usize).into()).collect()),
                ),
                ("header", (s.header_span as usize).into()),
            ])
        })
        .collect();
    let opts: Vec<Value> = det
        .opts
        .iter()
        .map(|o| {
            Value::obj(vec![
                ("spin", o.spin_index.into()),
                ("header", (o.header_span as usize).into()),
                (
                    "controls",
                    Value::Arr(
                        o.controls
                            .iter()
                            .map(|&(c, is_load)| {
                                Value::Arr(vec![(c.0 as usize).into(), is_load.into()])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Value::obj(vec![
        ("ann", Value::Arr(ann)),
        ("hints", Value::Arr(hints)),
        ("spins", Value::Arr(spins)),
        ("opts", Value::Arr(opts)),
    ])
    .to_string()
}

fn as_inst(v: &Value) -> Option<InstId> {
    let n = v.as_num()?;
    if n < 0.0 || n.fract() != 0.0 || n > u32::MAX as f64 {
        return None;
    }
    Some(InstId(n as u32))
}

fn as_span(v: &Value) -> Option<u32> {
    let n = v.as_num()?;
    if n < 0.0 || n.fract() != 0.0 || n > u32::MAX as f64 {
        return None;
    }
    Some(n as u32)
}

fn as_bool(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Deserializes a detection result against the live function, rebuilding
/// every location from the referenced instructions. Returns `None` — a
/// cache miss — on any inconsistency.
pub(crate) fn decode_detect(payload: &str, func: &Function) -> Option<FuncDetect> {
    let v = parse(payload).ok()?;
    let index = func.inst_index();
    // Rebuild a mark exactly as the detection passes would have: the
    // alias key is a pure function of (function, instruction).
    let mark_of = |i: InstId| -> Option<Mark> {
        let kind = index.get(i)?;
        Some(Mark {
            inst: i,
            loc: loc_of(&index, kind),
        })
    };

    let mut det = FuncDetect::default();
    for entry in v.get("ann")?.as_arr()? {
        let pair = entry.as_arr()?;
        if pair.len() != 2 {
            return None;
        }
        let mk = mark_of(as_inst(&pair[0])?)?;
        det.ann_marks.push((mk, as_bool(&pair[1])?));
    }
    for entry in v.get("hints")?.as_arr()? {
        det.hint_marks.push(mark_of(as_inst(entry)?)?);
    }
    for entry in v.get("spins")?.as_arr()? {
        let mut controls = Vec::new();
        for c in entry.get("controls")?.as_arr()? {
            controls.push(as_inst(c)?);
        }
        // Same rebuild as `detect_spinloops`: drop controls without an
        // indexed kind (there are none when the fingerprint matched).
        let control_locs: Vec<MemLoc> = controls
            .iter()
            .filter_map(|&id| index.get(id).map(|k| loc_of(&index, k)))
            .collect();
        det.spins.push(SpinDetect {
            controls,
            control_locs,
            header_span: as_span(entry.get("header")?)?,
        });
    }
    for entry in v.get("opts")?.as_arr()? {
        let spin_index = entry.get("spin")?.as_num()?;
        if spin_index < 0.0 || spin_index.fract() != 0.0 {
            return None;
        }
        let spin_index = spin_index as usize;
        let mut controls = Vec::new();
        for c in entry.get("controls")?.as_arr()? {
            let pair = c.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            controls.push((as_inst(&pair[0])?, as_bool(&pair[1])?));
        }
        // Optimistic control locations mirror the underlying spinloop's
        // (see `detect_optimistic`), so reuse the rebuilt vector.
        let control_locs = det.spins.get(spin_index)?.control_locs.clone();
        det.opts.push(OptDetect {
            spin_index,
            header_span: as_span(entry.get("header")?)?,
            controls,
            control_locs,
        });
    }
    Some(det)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;

    const SEQLOCK: &str = include_str!("../../../examples/seqlock_alias.c");

    fn detect_everything(src: &str, name: &str) -> (Module, Vec<FuncDetect>) {
        let mut m = atomig_frontc::compile(src, name).expect("compiles");
        let mut cfg = AtomigConfig::full();
        cfg.inline = false;
        let pipe = Pipeline::new(cfg);
        let dets = m
            .func_ids()
            .map(|fid| pipe.detect_func(&m, fid))
            .collect::<Vec<_>>();
        // Detection never mutates; keep the module for decode.
        m.name = name.to_string();
        (m, dets)
    }

    #[test]
    fn artifacts_round_trip_for_every_function() {
        let (m, dets) = detect_everything(SEQLOCK, "seqlock_alias");
        let mut nontrivial = 0;
        for (fid, det) in m.func_ids().zip(&dets) {
            let payload = encode_detect(det);
            let back = decode_detect(&payload, m.func(fid)).expect("decodes");
            assert_eq!(&back, det, "round-trip diverged in @{}", m.func(fid).name);
            nontrivial += usize::from(!det.spins.is_empty() || !det.ann_marks.is_empty());
        }
        assert!(nontrivial > 0, "example exercises no detection at all");
    }

    #[test]
    fn corrupt_payloads_decode_to_none() {
        let (m, dets) = detect_everything(SEQLOCK, "seqlock_alias");
        let fid = m.func_ids().next().unwrap();
        let func = m.func(fid);
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"ann":[],"hints":[],"spins":[],"opts":"nope"}"#,
            // Unknown instruction id.
            r#"{"ann":[[99999,false]],"hints":[],"spins":[],"opts":[]}"#,
            // Opt referencing a spin that does not exist.
            r#"{"ann":[],"hints":[],"spins":[],"opts":[{"spin":7,"header":1,"controls":[]}]}"#,
            // Non-integer instruction id.
            r#"{"ann":[[1.5,false]],"hints":[],"spins":[],"opts":[]}"#,
        ] {
            assert!(decode_detect(bad, func).is_none(), "accepted `{bad}`");
        }
        let _ = dets;
    }

    #[test]
    fn fingerprints_track_config_module_and_body() {
        let m = atomig_frontc::compile(SEQLOCK, "seqlock_alias").unwrap();
        let cfg = AtomigConfig::full();
        let seed = full_seed(&cfg, &m);
        let fid = m.func_ids().next().unwrap();
        let body = atomig_mir::printer::print_function(&m, m.func(fid));
        let base = func_fingerprint(&seed, &body);
        assert_eq!(base, func_fingerprint(&seed, &body));

        // A decision-relevant knob moves the fingerprint.
        let mut cfg2 = cfg.clone();
        cfg2.alias_mode = crate::AliasMode::PointsTo;
        assert_ne!(base, func_fingerprint(&full_seed(&cfg2, &m), &body));

        // Jobs and clock do not (they never change decisions).
        let mut cfg3 = cfg.clone();
        cfg3.jobs = 17;
        cfg3.clock = crate::trace::Clock::from_fn(|| std::time::Duration::ZERO);
        assert_eq!(base, func_fingerprint(&full_seed(&cfg3, &m), &body));

        // A body edit moves it.
        assert_ne!(base, func_fingerprint(&seed, &format!("{body} ")));
    }
}

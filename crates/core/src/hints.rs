//! §6 extension: compiler barriers as additional detection entry points.
//!
//! "Another idea worth exploring is to use the placement of compiler
//! barriers (which are turned into NOPs in the generated assembly code) as
//! additional entry points for detecting synchronization points." A
//! compiler barrier (`asm("" ::: "memory")`) has no hardware effect, but a
//! programmer wrote it precisely because the surrounding accesses are
//! concurrent — so the nearest non-local accesses on either side of the
//! barrier are strong synchronization candidates.
//!
//! Off by default ([`crate::AtomigConfig::compiler_barrier_hints`]); this
//! implements the paper's proposed future work so its effect can be
//! studied (see the `ablation` harness).

use crate::annotations::{loc_of, Mark};
use atomig_analysis::EscapeInfo;
use atomig_mir::{Builtin, Callee, InstIndex, InstKind};

/// Finds the nearest non-local memory access before and after every
/// compiler barrier, within the barrier's basic block, in the function
/// `index` indexes; `escape` is that function's escape information.
pub fn barrier_adjacent_accesses(index: &InstIndex<'_>, escape: &EscapeInfo) -> Vec<Mark> {
    let mut out = Vec::new();
    for block in &index.func().blocks {
        for (pos, inst) in block.insts.iter().enumerate() {
            let is_barrier = matches!(
                inst.kind,
                InstKind::Call {
                    callee: Callee::Builtin(Builtin::CompilerBarrier),
                    ..
                }
            );
            if !is_barrier {
                continue;
            }
            // Nearest preceding non-local access.
            for prev in block.insts[..pos].iter().rev() {
                if prev.kind.is_memory_access() {
                    let ptr = prev.kind.address().expect("access has address");
                    if escape.is_nonlocal(ptr) {
                        out.push(Mark {
                            inst: prev.id,
                            loc: loc_of(index, &prev.kind),
                        });
                    }
                    break;
                }
            }
            // Nearest following non-local access.
            for next in &block.insts[pos + 1..] {
                if next.kind.is_memory_access() {
                    let ptr = next.kind.address().expect("access has address");
                    if escape.is_nonlocal(ptr) {
                        out.push(Mark {
                            inst: next.id,
                            loc: loc_of(index, &next.kind),
                        });
                    }
                    break;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomig_mir::{Function, MemLoc};

    fn hints_of(f: &Function) -> Vec<Mark> {
        let index = f.inst_index();
        barrier_adjacent_accesses(&index, &EscapeInfo::new(&index))
    }

    #[test]
    fn marks_accesses_around_the_barrier() {
        let m = atomig_frontc::compile(
            r#"
            int ready; long payload;
            void publish(long v) {
                payload = v;
                asm("" ::: "memory");
                ready = 1;
            }
            "#,
            "cb",
        )
        .unwrap();
        let marks = hints_of(&m.funcs[0]);
        assert_eq!(marks.len(), 2);
        let names: Vec<String> = marks.iter().map(|mk| mk.loc.to_string()).collect();
        // payload (@g1) before, ready (@g0) after.
        assert!(names.iter().any(|n| n.contains("g0")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("g1")), "{names:?}");
    }

    #[test]
    fn local_accesses_are_not_marked() {
        let m = atomig_frontc::compile(
            r#"
            void local_only() {
                int x = 1;
                asm("" ::: "memory");
                x = x + 1;
            }
            "#,
            "cb",
        )
        .unwrap();
        let marks = hints_of(&m.funcs[0]);
        assert!(marks.is_empty(), "{marks:?}");
    }

    #[test]
    fn barrier_at_block_edges_is_fine() {
        let m = atomig_frontc::compile(
            r#"
            int g;
            void edge() {
                asm("" ::: "memory");
            }
            "#,
            "cb",
        )
        .unwrap();
        let marks = hints_of(&m.funcs[0]);
        assert!(marks.is_empty());
    }

    #[test]
    fn nearest_access_only() {
        let m = atomig_frontc::compile(
            r#"
            int a; int b; int c;
            void three() {
                a = 1;
                b = 2;
                asm("" ::: "memory");
                c = 3;
            }
            "#,
            "cb",
        )
        .unwrap();
        let marks = hints_of(&m.funcs[0]);
        assert_eq!(marks.len(), 2);
        // b (nearest before) and c (nearest after); a is untouched.
        let has = |g: u32| {
            marks
                .iter()
                .any(|mk| matches!(&mk.loc, MemLoc::Global(id, _) if id.0 == g))
        };
        assert!(!has(0) && has(1) && has(2));
    }
}

//! MIR holds no spare capacity: every block's instruction `Vec` is
//! exactly as long as it is large, after lowering, after parsing the
//! printed text back, and after a full port with either alias backend,
//! inlining on or off. The printed module is exactly as large as its
//! text. Checked on each `examples/*.c` and the five Table 3 profiles at
//! 1:1000 (seeds 1 and 7). The instruction layout is pinned as well.

use atomig_core::{AliasMode, AtomigConfig, Pipeline};
use atomig_mir::printer::print_module;
use atomig_mir::{
    parse_module, BinOp, BlockId, FunctionBuilder, Inst, InstKind, Module, Ordering, Type, Value,
};
use atomig_workloads::profiles;
use atomig_workloads::synth::{self, GenConfig};
use std::mem::size_of;
use std::path::Path;

fn inputs() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("example readable"))
        })
        .collect();
    assert!(!out.is_empty());
    for seed in [1, 7] {
        for p in profiles::all() {
            let app = synth::generate(GenConfig {
                seed,
                ..GenConfig::from_profile(&p, 1000)
            });
            out.push((format!("{} seed {seed}", p.name), app.source));
        }
    }
    out
}

/// The first block, as `function/bbN`, whose capacity exceeds its length.
fn spare_block(m: &Module) -> Option<String> {
    m.funcs.iter().find_map(|f| {
        f.block_ids()
            .find(|&b| f.block(b).insts.capacity() != f.block(b).insts.len())
            .map(|b| format!("@{}/{b}", f.name))
    })
}

#[test]
fn lowered_and_parsed_blocks_hold_no_spare_capacity() {
    for (name, src) in inputs() {
        let m = atomig_frontc::compile(&src, &name).expect("input compiles");
        assert!(m.inst_count() > 0, "{name}");
        assert_eq!(spare_block(&m), None, "{name}: lowered");
        let parsed = parse_module(&print_module(&m)).expect("printed MIR parses");
        assert_eq!(spare_block(&parsed), None, "{name}: parsed");
    }
}

#[test]
fn ported_blocks_hold_no_spare_capacity() {
    for (name, src) in inputs() {
        let built = atomig_frontc::compile(&src, &name).expect("input compiles");
        for alias_mode in [AliasMode::TypeBased, AliasMode::PointsTo] {
            for inline in [false, true] {
                let mut m = built.clone();
                let config = AtomigConfig {
                    alias_mode,
                    inline,
                    ..AtomigConfig::full()
                };
                Pipeline::new(config).port_module(&mut m);
                let how = format!("{name}: ported, {}, inline {inline}", alias_mode.name());
                assert_eq!(spare_block(&m), None, "{how}");
            }
        }
    }
}

#[test]
fn printed_modules_are_exactly_sized() {
    for (name, src) in inputs() {
        let m = atomig_frontc::compile(&src, &name).expect("input compiles");
        let text = print_module(&m);
        assert_eq!(text.capacity(), text.len(), "{name}");
    }
}

/// An instruction is 48 bytes: the 40-byte `InstKind`, its id and its
/// span. A type is a 4-byte handle, so the widest inline variants
/// (`Store`, `Rmw`, `Call`) fit two 16-byte values or a `Vec` beside it. On MariaDB at 1:10 (1.03 M instructions) lowered code is 31.6 %
/// loads, 22.9 % binary ops, 21.3 % stores, 10.6 % allocas, 8.8 %
/// compares, 4.4 % casts and 0.3 % calls, while `cmpxchg` (0.06 %), `gep`
/// (0.03 %) and `rmw` (0.01 %) are rare. So `cmpxchg`'s payload is boxed
/// and a `gep` keeps its index path in a boxed slice: a wider rare
/// variant would cost every instruction 16 bytes more.
#[test]
fn instruction_layout_is_pinned() {
    assert_eq!(size_of::<Type>(), 4);
    assert_eq!(size_of::<Value>(), 16);
    assert_eq!(size_of::<InstKind>(), 40);
    assert_eq!(size_of::<Inst>(), 48);
}

#[test]
fn switching_back_to_a_filled_block_appends_in_order() {
    let mut b = FunctionBuilder::new("f", vec![], Type::Void);
    let other = b.new_block();
    let first = b.bin(BinOp::Add, Value::Const(1), Value::Const(2));
    b.switch_to(other);
    b.fence(Ordering::SeqCst);
    b.ret(None);
    b.switch_to(BlockId(0));
    b.bin(BinOp::Add, first, Value::Const(3));
    b.fence(Ordering::SeqCst);
    b.br(other);
    let f = b.finish();
    let ids = |bb: BlockId| -> Vec<u32> { f.block(bb).insts.iter().map(|i| i.id.0).collect() };
    assert_eq!(ids(BlockId(0)), [0, 2, 3]);
    assert_eq!(ids(other), [1]);
    for block in &f.blocks {
        assert_eq!(block.insts.capacity(), block.insts.len());
    }
}

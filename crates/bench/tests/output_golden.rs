//! Golden bytes for the paper renderers.
//!
//! Every `all_reports()` text is hashed with FNV-1a, and the table below
//! pins each one byte for byte: a table row, a rounding or a reference
//! value that moves cannot pass unnoticed. `report <name>` prints exactly
//! these texts, so the table also pins the renderer CLI's output.
//!
//! On a mismatch the test prints the freshly computed table; replace the
//! golden table with it only when a change to a renderer's output is
//! intended, and say why.

use dhl_storage::fnv1a_64;

/// One entry per renderer, in `all_reports()` order.
const GOLDEN: [(&str, u64); 9] = [
    ("fig2", 0xc298ae898bd26055),
    ("table6", 0x2184e7238ef42207),
    ("table7", 0xb324282f5052cb8c),
    ("table8", 0xdeea9aabec31c556),
    ("fig6", 0x4fa21cd1fbbae79a),
    ("crossover", 0xa425c2ed24f0f8dc),
    ("ablation", 0x6a6af7b15164a2da),
    ("sensitivity", 0xe73ffd01d4cb7810),
    ("fleet", 0x117e4eff821199fa),
];

#[test]
fn every_renderer_matches_its_golden_hash() {
    let fresh: Vec<(&str, u64)> = dhl_bench::all_reports()
        .into_iter()
        .map(|(name, render)| (name, fnv1a_64(render().as_bytes())))
        .collect();
    let printed: String = fresh
        .iter()
        .map(|(name, hash)| format!("    (\"{name}\", 0x{hash:016x}),\n"))
        .collect();
    assert_eq!(
        fresh.len(),
        GOLDEN.len(),
        "renderers added or removed; fresh table:\n[\n{printed}]"
    );
    for (&(name, hash), &(golden_name, golden)) in fresh.iter().zip(&GOLDEN) {
        assert!(
            name == golden_name && hash == golden,
            "{name}: hash 0x{hash:016x} != golden {golden_name} 0x{golden:016x}\n\
             fresh table:\n[\n{printed}]"
        );
    }
}

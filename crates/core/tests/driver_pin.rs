//! Pins of the SAT drivers: 4R1W, 2R1W, the hybrid (1+r²)R1W at
//! r ∈ {¼, ½, 1}, 2R2W and the 1R1W family (staged, persistent, mirror and
//! a fused batch of three). On every width and block shape of the grid below,
//! `dev.stats()`, a digest of every launch's op sequence and a digest of a
//! fractional `f64` output must equal golden values, and the output must
//! equal `sat_reference` bit for bit — also on race-checked buffers under a
//! shuffled two-worker schedule.
//!
//! The 4R1W goldens were recorded from the gather-based kernel the strided
//! one replaced. Those of 2R1W, the hybrid and 2R2W were recorded before
//! plain 2R1W, the hybrid's staircase triangles and 2R2W's column pass came
//! to share one set of block-sum, fringe-prefix and fix-up kernels. Those of
//! the 1R1W family were recorded before its block body fused the tile scan
//! into the load and the emit, and before the tile kept its words in logical
//! order. 2R1W is not pinned at w = 1, where its recursion cannot shrink the
//! problem.

use gpu_exec::replay::fingerprint_bits;
use gpu_exec::{BlockOrder, Device, DeviceOptions, GlobalBuffer, RunTrace};
use hmm_model::cost::CostCounters;
use hmm_model::{AccessKind, MachineConfig, MemSpace};
use sat_core::element::SatElement;
use sat_core::par::{
    sat_1r1w, sat_1r1w_batch, sat_1r1w_mirror, sat_1r1w_persistent, sat_2r1w, sat_2r2w, sat_4r1w,
    sat_hybrid,
};
use sat_core::seq::sat_reference;
use sat_core::Matrix;

use Driver::*;

const WIDTHS: [usize; 6] = [1, 2, 3, 4, 8, 32];

/// Block shapes `(block rows, block columns)`: the matrix is
/// `br·w × bc·w`.
const BLOCKS: [(usize, usize); 6] = [(1, 1), (1, 5), (5, 1), (2, 3), (3, 2), (4, 4)];

/// What one grid cell pins.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// `coalesced_reads, coalesced_writes, stride_reads, stride_writes,
    /// global_stages, barrier_steps`.
    global: [u64; 6],
    /// Digest of the per-launch op-sequence digests, in launch order.
    ops: u64,
    /// Digest of the output bits for the fractional `f64` input.
    out: u64,
}

/// 4R1W golden values, one row per `(w, br, bc)` in grid order. 4R1W
/// touches global memory only.
#[rustfmt::skip]
const GOLDEN: [(usize, usize, usize, Pin); 36] = [
    (1, 1, 1, Pin { global: [1, 1, 0, 0, 2, 0], ops: 0x7613b42da48e5971, out: 0xa87d743227db20ff }),
    (1, 1, 5, Pin { global: [9, 5, 0, 0, 14, 4], ops: 0x540b927bd90d9629, out: 0x06bf71880ecf8eb1 }),
    (1, 5, 1, Pin { global: [9, 5, 0, 0, 14, 4], ops: 0x540b927bd90d9629, out: 0x4d07e66a613c6c03 }),
    (1, 2, 3, Pin { global: [15, 6, 0, 0, 21, 3], ops: 0x1e108b8642a120fa, out: 0x2a4a961c8192088f }),
    (1, 3, 2, Pin { global: [15, 6, 0, 0, 21, 3], ops: 0x2c10f62b4c0332f3, out: 0x897e5335d149db39 }),
    (1, 4, 4, Pin { global: [49, 16, 0, 0, 65, 6], ops: 0xf22c5626fd4af94f, out: 0xfd4d2c140069cb40 }),
    (2, 1, 1, Pin { global: [7, 2, 2, 2, 13, 2], ops: 0x6a6ed76f1d0ca910, out: 0xb4dc97bdca152325 }),
    (2, 1, 5, Pin { global: [23, 2, 34, 18, 77, 10], ops: 0xd21fa9c65c9230b0, out: 0xfd6a14475aceaffe }),
    (2, 5, 1, Pin { global: [23, 2, 34, 18, 77, 10], ops: 0xa5b8522ff46d2f90, out: 0xec950e48b67ad284 }),
    (2, 2, 3, Pin { global: [23, 4, 54, 20, 101, 8], ops: 0x40520f9a89377cdd, out: 0xfc6e9e0199c74d15 }),
    (2, 3, 2, Pin { global: [23, 4, 54, 20, 101, 8], ops: 0x197bc7d77f98652d, out: 0xc80db228f7f1374c }),
    (2, 4, 4, Pin { global: [43, 8, 182, 56, 289, 14], ops: 0x6cb560e0a25dcc07, out: 0xd68405ce5926a9dc }),
    (3, 1, 1, Pin { global: [8, 2, 17, 7, 34, 4], ops: 0x3ca5ef6931bc90c6, out: 0x7541e2ebac11cc3f }),
    (3, 1, 5, Pin { global: [8, 2, 137, 43, 190, 16], ops: 0x8043f8d852937ece, out: 0x38b6d7d71eab5411 }),
    (3, 5, 1, Pin { global: [8, 2, 137, 43, 190, 16], ops: 0x19e3df3bd2cc0886, out: 0xe11bb9c2e41f8d78 }),
    (3, 2, 3, Pin { global: [16, 4, 171, 50, 241, 13], ops: 0x07757387c1ae5086, out: 0xa8431f8f65433400 }),
    (3, 3, 2, Pin { global: [16, 4, 171, 50, 241, 13], ops: 0x3c7cb929b5fc8733, out: 0x7065c9f7f1c0a53d }),
    (3, 4, 4, Pin { global: [32, 8, 497, 136, 673, 22], ops: 0x83fcfaa5743584e3, out: 0x556ca78a31c8c071 }),
    (4, 1, 1, Pin { global: [8, 2, 41, 14, 65, 6], ops: 0x8c7fcf13e2cc1571, out: 0xfd4d2c140069cb40 }),
    (4, 1, 5, Pin { global: [8, 2, 265, 78, 353, 22], ops: 0x35d61ca2b3d088d1, out: 0x29ab53c8fa9eb6a3 }),
    (4, 5, 1, Pin { global: [8, 2, 265, 78, 353, 22], ops: 0xb8ad1f8ee5e425d1, out: 0x7cf49ade04d28a60 }),
    (4, 2, 3, Pin { global: [16, 4, 329, 92, 441, 18], ops: 0x750479419251eb10, out: 0x3ce755eb178ca89a }),
    (4, 3, 2, Pin { global: [16, 4, 329, 92, 441, 18], ops: 0x46caf843bd819f58, out: 0xb568aa6a7d418f65 }),
    (4, 4, 4, Pin { global: [32, 8, 929, 248, 1217, 30], ops: 0x75bf1d20136fd775, out: 0xe0fb10c89ccb756c }),
    (8, 1, 1, Pin { global: [8, 2, 217, 62, 289, 14], ops: 0xf67afa253f744961, out: 0xd68405ce5926a9dc }),
    (8, 1, 5, Pin { global: [8, 2, 1177, 318, 1505, 46], ops: 0x42ab183a66295161, out: 0xdd29f4a2712e1094 }),
    (8, 5, 1, Pin { global: [8, 2, 1177, 318, 1505, 46], ops: 0x0d584491181e7261, out: 0x7d9fee730eb75c87 }),
    (8, 2, 3, Pin { global: [16, 4, 1441, 380, 1841, 38], ops: 0x2038715e2fb6665e, out: 0x107dc91c8f37d9b6 }),
    (8, 3, 2, Pin { global: [16, 4, 1441, 380, 1841, 38], ops: 0xab88a7428840e0be, out: 0xdc1ff9858075034a }),
    (8, 4, 4, Pin { global: [32, 8, 3937, 1016, 4993, 62], ops: 0x40d9c736c10b469e, out: 0xe96456c7e13f3470 }),
    (32, 1, 1, Pin { global: [8, 2, 3961, 1022, 4993, 62], ops: 0x407c5cae985cf74b, out: 0xe96456c7e13f3470 }),
    (32, 1, 5, Pin { global: [8, 2, 20089, 5118, 25217, 190], ops: 0x41b207b21d5b1f4b, out: 0x51344691f3fc3c76 }),
    (32, 5, 1, Pin { global: [8, 2, 20089, 5118, 25217, 190], ops: 0x634acaeaec9b014b, out: 0x07d67b5792ad7314 }),
    (32, 2, 3, Pin { global: [16, 4, 24241, 6140, 30401, 158], ops: 0xd11f49f53dca4d9d, out: 0xe70b3d8ea079c08e }),
    (32, 3, 2, Pin { global: [16, 4, 24241, 6140, 30401, 158], ops: 0x6c055b20a0cc965d, out: 0xd6104e4a3c64c65b }),
    (32, 4, 4, Pin { global: [32, 8, 64993, 16376, 81409, 254], ops: 0xe1698d90b804f38d, out: 0xab2a017f3f636ebe }),
];

/// A pinned driver.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Driver {
    FourR1W,
    TwoR1W,
    Hybrid(f64),
    TwoR2W,
    OneR1W,
    Persistent,
    Mirror,
    /// [`sat_1r1w_batch`] over three images (see [`images`]).
    Batch3,
}

/// The drivers of [`GOLDEN_DRIVERS`], in table order.
const DRIVERS: [Driver; 5] = [TwoR1W, Hybrid(0.25), Hybrid(0.5), Hybrid(1.0), TwoR2W];

/// The drivers of [`GOLDEN_ONE_R1W`], in table order.
const ONE_R1W: [Driver; 4] = [OneR1W, Persistent, Mirror, Batch3];

impl Driver {
    /// The widths this driver is pinned at.
    fn widths(self) -> &'static [usize] {
        match self {
            TwoR1W => &WIDTHS[1..],
            _ => &WIDTHS,
        }
    }
}

/// Golden values of the other drivers, one row per `(driver, w, br, bc)`
/// in [`DRIVERS`] and grid order. The array is `shared_reads,
/// shared_writes, shared_stages`; handoff counters are zero throughout.
#[rustfmt::skip]
static GOLDEN_DRIVERS: [(Driver, usize, usize, usize, [u64; 3], Pin); 174] = [
    (TwoR1W, 2, 1, 1, [12, 8, 10], Pin { global: [4, 4, 0, 0, 4, 0], ops: 0xc7a2aba6f4d40477, out: 0xb4dc97bdca152325 }),
    (TwoR1W, 2, 1, 5, [142, 98, 120], Pin { global: [144, 140, 0, 0, 149, 8], ops: 0x6316c402e9a32b83, out: 0xc3a6106476307e86 }),
    (TwoR1W, 2, 5, 1, [142, 98, 120], Pin { global: [144, 140, 0, 0, 157, 8], ops: 0x8e5e6fb30f27ef80, out: 0x036cf6e9f69c23a2 }),
    (TwoR1W, 2, 2, 3, [120, 84, 102], Pin { global: [120, 112, 2, 0, 125, 5], ops: 0xcbbf8ed2eb4ed91e, out: 0xcb38c8a60f946215 }),
    (TwoR1W, 2, 3, 2, [120, 84, 102], Pin { global: [122, 112, 0, 0, 124, 5], ops: 0x6f8d250889b40435, out: 0x70fedbce8d9609ba }),
    (TwoR1W, 2, 4, 4, [304, 220, 262], Pin { global: [326, 280, 0, 0, 318, 5], ops: 0x7df4946e1c29b850, out: 0xf4b0017806378b3b }),
    (TwoR1W, 3, 1, 1, [33, 21, 18], Pin { global: [9, 9, 0, 0, 6, 0], ops: 0x8cf1b75a04467e41, out: 0x029e4d7a77fa8106 }),
    (TwoR1W, 3, 1, 5, [270, 174, 148], Pin { global: [190, 161, 0, 0, 123, 5], ops: 0xf403a33bee386352, out: 0x693ef2f42fb85edb }),
    (TwoR1W, 3, 5, 1, [270, 174, 148], Pin { global: [190, 161, 0, 0, 131, 5], ops: 0xb0eb5865602fe249, out: 0xa40dc555b82b34ed }),
    (TwoR1W, 3, 2, 3, [243, 159, 134], Pin { global: [173, 138, 0, 0, 109, 2], ops: 0x80cbffec197518f2, out: 0x1c8d848027864054 }),
    (TwoR1W, 3, 3, 2, [243, 159, 134], Pin { global: [171, 136, 2, 2, 113, 2], ops: 0xd59aa9a2a0ccba02, out: 0x1c56db0571280b0c }),
    (TwoR1W, 3, 4, 4, [768, 516, 428], Pin { global: [586, 458, 8, 2, 382, 5], ops: 0x21699f680d0c6061, out: 0x828fe38a56d49a32 }),
    (TwoR1W, 4, 1, 1, [64, 40, 26], Pin { global: [16, 16, 0, 0, 8, 0], ops: 0xa018cb5484828288, out: 0x42f81b0d5b609dda }),
    (TwoR1W, 4, 1, 5, [516, 324, 210], Pin { global: [307, 238, 0, 0, 144, 5], ops: 0x46e740ed119c3c50, out: 0xac69c83986921b34 }),
    (TwoR1W, 4, 5, 1, [516, 324, 210], Pin { global: [307, 238, 0, 0, 152, 5], ops: 0x4314c92fc4abacc9, out: 0x56d5eac7a3cd421f }),
    (TwoR1W, 4, 2, 3, [460, 292, 188], Pin { global: [273, 201, 3, 3, 129, 2], ops: 0xff9a8e1afae64b47, out: 0x5344e418f3d3be8b }),
    (TwoR1W, 4, 3, 2, [460, 292, 188], Pin { global: [276, 204, 0, 0, 129, 2], ops: 0x546ec63ef2648b46, out: 0x6027ea0867b9a11f }),
    (TwoR1W, 4, 4, 4, [1168, 760, 482], Pin { global: [761, 544, 0, 0, 345, 2], ops: 0xfda3692c3516356f, out: 0xfcbf4d6191839ddd }),
    (TwoR1W, 8, 1, 1, [288, 176, 58], Pin { global: [64, 64, 0, 0, 16, 0], ops: 0x650a1b708759fe17, out: 0x9f08ed814cd52595 }),
    (TwoR1W, 8, 1, 5, [1696, 1024, 340], Pin { global: [757, 490, 0, 0, 161, 2], ops: 0xafcae93f07a835ba, out: 0x892cc1f732636bff }),
    (TwoR1W, 8, 5, 1, [1696, 1024, 340], Pin { global: [757, 490, 0, 0, 169, 2], ops: 0xbd60b8b551a75286, out: 0x1fbf30a679c495f5 }),
    (TwoR1W, 8, 2, 3, [2008, 1224, 404], Pin { global: [928, 588, 0, 0, 199, 2], ops: 0x006d122ecd57098f, out: 0xa7bae37e31ef9abb }),
    (TwoR1W, 8, 3, 2, [2008, 1224, 404], Pin { global: [928, 588, 0, 0, 201, 2], ops: 0xac0b87d1915f3a72, out: 0xd749ad9835fdd4b6 }),
    (TwoR1W, 8, 4, 4, [5024, 3120, 1018], Pin { global: [2521, 1568, 0, 0, 537, 2], ops: 0x999fd66c53fff9ec, out: 0xb8ff97f1c2783e2d }),
    (TwoR1W, 32, 1, 1, [4992, 3008, 250], Pin { global: [1024, 1024, 0, 0, 64, 0], ops: 0xc8154ce5b5dc29fa, out: 0xd9bd36dc782973de }),
    (TwoR1W, 32, 1, 5, [29056, 17152, 1444], Pin { global: [10693, 5770, 0, 0, 521, 2], ops: 0xea8e7eba22431467, out: 0x0758100e3462181a }),
    (TwoR1W, 32, 5, 1, [29056, 17152, 1444], Pin { global: [10693, 5770, 0, 0, 529, 2], ops: 0x1e74ce6cf90b61ce, out: 0x77b524d7d6636bc4 }),
    (TwoR1W, 32, 2, 3, [34144, 20256, 1700], Pin { global: [12904, 6924, 0, 0, 631, 2], ops: 0x360c8324550298c7, out: 0x905a73eea9a69c12 }),
    (TwoR1W, 32, 3, 2, [34144, 20256, 1700], Pin { global: [12904, 6924, 0, 0, 633, 2], ops: 0x156c3482ba3566de, out: 0x3716381db3e54917 }),
    (TwoR1W, 32, 4, 4, [84608, 50880, 4234], Pin { global: [34585, 18464, 0, 0, 1689, 2], ops: 0xfdea826812923de9, out: 0xe0d7597055c8e4c9 }),
    (Hybrid(0.25), 1, 1, 1, [1, 1, 2], Pin { global: [1, 1, 0, 0, 2, 0], ops: 0x8e4ad64ca032efcb, out: 0xa87d743227db20ff }),
    (Hybrid(0.25), 1, 1, 5, [5, 5, 10], Pin { global: [9, 5, 0, 0, 14, 4], ops: 0x02664636915760cb, out: 0x06bf71880ecf8eb1 }),
    (Hybrid(0.25), 1, 5, 1, [5, 5, 10], Pin { global: [9, 5, 0, 0, 14, 4], ops: 0x02664636915760cb, out: 0x4d07e66a613c6c03 }),
    (Hybrid(0.25), 1, 2, 3, [8, 8, 16], Pin { global: [26, 17, 0, 0, 43, 9], ops: 0x386714f4872e018e, out: 0x2a4a961c8192088f }),
    (Hybrid(0.25), 1, 3, 2, [8, 8, 16], Pin { global: [26, 17, 0, 0, 43, 9], ops: 0x6e637861db402076, out: 0x897e5335d149db39 }),
    (Hybrid(0.25), 1, 4, 4, [18, 18, 36], Pin { global: [60, 27, 0, 0, 87, 12], ops: 0x485f728c6b6854f0, out: 0x760109c707c2eae6 }),
    (Hybrid(0.25), 2, 1, 1, [12, 8, 10], Pin { global: [4, 4, 0, 0, 4, 0], ops: 0xc7a2aba6f4d40477, out: 0xb4dc97bdca152325 }),
    (Hybrid(0.25), 2, 1, 5, [60, 40, 50], Pin { global: [20, 20, 8, 0, 28, 4], ops: 0x4d15caa6c9253dbf, out: 0x124bfc0a8ca024b4 }),
    (Hybrid(0.25), 2, 5, 1, [60, 40, 50], Pin { global: [28, 20, 0, 0, 24, 4], ops: 0x6ef2c2daccb6d0d7, out: 0x036cf6e9f69c23a2 }),
    (Hybrid(0.25), 2, 2, 3, [76, 52, 64], Pin { global: [53, 45, 12, 0, 63, 9], ops: 0xc27da984838eb8d5, out: 0x45890cb7e6970c55 }),
    (Hybrid(0.25), 2, 3, 2, [76, 52, 64], Pin { global: [55, 45, 10, 0, 62, 9], ops: 0x48d4010829245e74, out: 0xa39db7808ec369c7 }),
    (Hybrid(0.25), 2, 4, 4, [196, 132, 164], Pin { global: [118, 85, 28, 0, 135, 12], ops: 0x659e907d7b4323ce, out: 0x1c3bfd91ae1ddf5c }),
    (Hybrid(0.25), 3, 1, 1, [33, 21, 18], Pin { global: [9, 9, 0, 0, 6, 0], ops: 0x8cf1b75a04467e41, out: 0x029e4d7a77fa8106 }),
    (Hybrid(0.25), 3, 1, 5, [165, 105, 90], Pin { global: [45, 45, 12, 0, 42, 4], ops: 0x014d34afcbef5e91, out: 0xad4f76635f03dba7 }),
    (Hybrid(0.25), 3, 5, 1, [165, 105, 90], Pin { global: [57, 45, 0, 0, 34, 4], ops: 0xbeefe11aed516e81, out: 0xaf920110d8c1eb8b }),
    (Hybrid(0.25), 3, 2, 3, [204, 132, 112], Pin { global: [102, 85, 18, 0, 82, 9], ops: 0x1cd64f7f75a152bb, out: 0x6075acfcb8f46e83 }),
    (Hybrid(0.25), 3, 3, 2, [204, 132, 112], Pin { global: [105, 85, 15, 0, 80, 9], ops: 0xbe6d96bde25445d2, out: 0xb4adcedcd67e7e2b }),
    (Hybrid(0.25), 3, 4, 4, [534, 342, 292], Pin { global: [226, 175, 42, 0, 182, 12], ops: 0x23ea581ab919bd02, out: 0x4bfcaf055008a5b9 }),
    (Hybrid(0.25), 4, 1, 1, [64, 40, 26], Pin { global: [16, 16, 0, 0, 8, 0], ops: 0xa018cb5484828288, out: 0x42f81b0d5b609dda }),
    (Hybrid(0.25), 4, 1, 5, [320, 200, 130], Pin { global: [80, 80, 16, 0, 56, 4], ops: 0x1eccecfab0de9ce0, out: 0xf5caa23978710bab }),
    (Hybrid(0.25), 4, 5, 1, [320, 200, 130], Pin { global: [96, 80, 0, 0, 44, 4], ops: 0x0facf615cc961548, out: 0x408b7f7b7e88a4a1 }),
    (Hybrid(0.25), 4, 2, 3, [392, 248, 160], Pin { global: [167, 137, 24, 0, 101, 9], ops: 0x13aee017aa0baad4, out: 0xc4b9bbfc9f04fd90 }),
    (Hybrid(0.25), 4, 3, 2, [392, 248, 160], Pin { global: [171, 137, 20, 0, 98, 9], ops: 0x5673bc0f474f957b, out: 0xf7798e12b59f04e1 }),
    (Hybrid(0.25), 4, 4, 4, [1032, 648, 420], Pin { global: [370, 297, 56, 0, 229, 12], ops: 0xbab2c789faec7d1a, out: 0xaeee382400de8e0b }),
    (Hybrid(0.25), 8, 1, 1, [288, 176, 58], Pin { global: [64, 64, 0, 0, 16, 0], ops: 0x650a1b708759fe17, out: 0x9f08ed814cd52595 }),
    (Hybrid(0.25), 8, 1, 5, [1440, 880, 290], Pin { global: [320, 320, 32, 0, 112, 4], ops: 0x4c0ae063725f73d7, out: 0x4b1461b039e0a8d0 }),
    (Hybrid(0.25), 8, 5, 1, [1440, 880, 290], Pin { global: [352, 320, 0, 0, 84, 4], ops: 0x7f3fd77cb3be94cf, out: 0x64913d26eb789311 }),
    (Hybrid(0.25), 8, 2, 3, [1744, 1072, 352], Pin { global: [587, 465, 48, 0, 177, 9], ops: 0x7dd31624943bd077, out: 0xb0c4ff1cb1b8e215 }),
    (Hybrid(0.25), 8, 3, 2, [1744, 1072, 352], Pin { global: [595, 465, 40, 0, 170, 9], ops: 0x20f159ab233a24f8, out: 0xaf2eaa100c5907e6 }),
    (Hybrid(0.25), 8, 4, 4, [4624, 2832, 932], Pin { global: [1306, 1105, 112, 0, 417, 12], ops: 0x08419068e1c8d917, out: 0x4391b8db5c7aee4d }),
    (Hybrid(0.25), 32, 1, 1, [4992, 3008, 250], Pin { global: [1024, 1024, 0, 0, 64, 0], ops: 0xc8154ce5b5dc29fa, out: 0xd9bd36dc782973de }),
    (Hybrid(0.25), 32, 1, 5, [24960, 15040, 1250], Pin { global: [5120, 5120, 128, 0, 448, 4], ops: 0xcbaea76ac4ac83ea, out: 0x9536088575386519 }),
    (Hybrid(0.25), 32, 5, 1, [24960, 15040, 1250], Pin { global: [5248, 5120, 0, 0, 324, 4], ops: 0xccf6ff09f4b5ff32, out: 0x4a27b584ea408ec4 }),
    (Hybrid(0.25), 32, 2, 3, [30016, 18112, 1504], Pin { global: [8483, 6465, 192, 0, 633, 9], ops: 0x09eb726b59e441df, out: 0xba72be8e41709a14 }),
    (Hybrid(0.25), 32, 3, 2, [30016, 18112, 1504], Pin { global: [8515, 6465, 160, 0, 602, 9], ops: 0x38a3da9f223f5d90, out: 0x4e9ed1aca8b59599 }),
    (Hybrid(0.25), 32, 4, 4, [79936, 48192, 4004], Pin { global: [19018, 16705, 448, 0, 1545, 12], ops: 0x819a90964c493391, out: 0x0d8cbd20f96b08bf }),
    (Hybrid(0.5), 1, 1, 1, [1, 1, 2], Pin { global: [4, 5, 0, 0, 9, 3], ops: 0x5744facf45d67cc0, out: 0xa87d743227db20ff }),
    (Hybrid(0.5), 1, 1, 5, [6, 6, 12], Pin { global: [16, 14, 0, 0, 30, 10], ops: 0xaf920938f709a261, out: 0x06bf71880ecf8eb1 }),
    (Hybrid(0.5), 1, 5, 1, [6, 6, 12], Pin { global: [16, 14, 0, 0, 30, 10], ops: 0xa03dcbe745ec21b0, out: 0x4d07e66a613c6c03 }),
    (Hybrid(0.5), 1, 2, 3, [8, 8, 16], Pin { global: [26, 17, 0, 0, 43, 9], ops: 0x386714f4872e018e, out: 0x2a4a961c8192088f }),
    (Hybrid(0.5), 1, 3, 2, [8, 8, 16], Pin { global: [26, 17, 0, 0, 43, 9], ops: 0x6e637861db402076, out: 0x897e5335d149db39 }),
    (Hybrid(0.5), 1, 4, 4, [24, 24, 48], Pin { global: [78, 47, 0, 0, 125, 10], ops: 0x18e129ba0e581b10, out: 0x760109c707c2eae6 }),
    (Hybrid(0.5), 2, 1, 1, [12, 8, 10], Pin { global: [12, 12, 0, 0, 12, 3], ops: 0x3fb0f686c2da6bf4, out: 0xb4dc97bdca152325 }),
    (Hybrid(0.5), 2, 1, 5, [62, 42, 52], Pin { global: [39, 38, 8, 0, 47, 10], ops: 0xfa8b7b014cda56dd, out: 0x124bfc0a8ca024b4 }),
    (Hybrid(0.5), 2, 5, 1, [62, 42, 52], Pin { global: [47, 38, 0, 0, 43, 10], ops: 0x6dfd2c8363d6c182, out: 0x036cf6e9f69c23a2 }),
    (Hybrid(0.5), 2, 2, 3, [76, 52, 64], Pin { global: [53, 45, 12, 0, 63, 9], ops: 0xc27da984838eb8d5, out: 0x45890cb7e6970c55 }),
    (Hybrid(0.5), 2, 3, 2, [76, 52, 64], Pin { global: [55, 45, 10, 0, 62, 9], ops: 0x48d4010829245e74, out: 0xa39db7808ec369c7 }),
    (Hybrid(0.5), 2, 4, 4, [208, 144, 176], Pin { global: [161, 123, 28, 0, 177, 10], ops: 0x3d9942d07b61aa46, out: 0xe352ee382d4dd8f8 }),
    (Hybrid(0.5), 3, 1, 1, [33, 21, 18], Pin { global: [24, 21, 0, 0, 15, 3], ops: 0x221df69f00387c93, out: 0x029e4d7a77fa8106 }),
    (Hybrid(0.5), 3, 1, 5, [168, 108, 92], Pin { global: [78, 72, 14, 0, 64, 10], ops: 0x606673327ca3d601, out: 0xa9b8890bf6c9c845 }),
    (Hybrid(0.5), 3, 5, 1, [168, 108, 92], Pin { global: [92, 72, 0, 0, 55, 10], ops: 0xba535714ccbcf0f2, out: 0x4e46ac0507ec975b }),
    (Hybrid(0.5), 3, 2, 3, [204, 132, 112], Pin { global: [102, 85, 18, 0, 82, 9], ops: 0x1cd64f7f75a152bb, out: 0x6075acfcb8f46e83 }),
    (Hybrid(0.5), 3, 3, 2, [204, 132, 112], Pin { global: [105, 85, 15, 0, 80, 9], ops: 0xbe6d96bde25445d2, out: 0xb4adcedcd67e7e2b }),
    (Hybrid(0.5), 3, 4, 4, [552, 360, 304], Pin { global: [302, 231, 42, 0, 227, 10], ops: 0x21ca4570322968c2, out: 0x1c2ea6d883201e76 }),
    (Hybrid(0.5), 4, 1, 1, [64, 40, 26], Pin { global: [40, 32, 0, 0, 18, 3], ops: 0x71151d2e8cd5a971, out: 0x42f81b0d5b609dda }),
    (Hybrid(0.5), 4, 1, 5, [324, 204, 132], Pin { global: [132, 116, 19, 0, 81, 10], ops: 0x5e34761da9a23ebc, out: 0xf5caa23978710bab }),
    (Hybrid(0.5), 4, 5, 1, [324, 204, 132], Pin { global: [151, 116, 0, 0, 67, 10], ops: 0xa49df5f841d0aa5d, out: 0x1195894132447852 }),
    (Hybrid(0.5), 4, 2, 3, [392, 248, 160], Pin { global: [167, 137, 24, 0, 101, 9], ops: 0x13aee017aa0baad4, out: 0xc4b9bbfc9f04fd90 }),
    (Hybrid(0.5), 4, 3, 2, [392, 248, 160], Pin { global: [171, 137, 20, 0, 98, 9], ops: 0x5673bc0f474f957b, out: 0xf7798e12b59f04e1 }),
    (Hybrid(0.5), 4, 4, 4, [1056, 672, 432], Pin { global: [487, 371, 56, 0, 277, 10], ops: 0xe0e6601c1004a3a9, out: 0xe2cf2b5f38702a93 }),
    (Hybrid(0.5), 8, 1, 1, [288, 176, 58], Pin { global: [144, 96, 0, 0, 30, 3], ops: 0xb2a4a8b1fab4dd0c, out: 0x9f08ed814cd52595 }),
    (Hybrid(0.5), 8, 1, 5, [1448, 888, 292], Pin { global: [488, 392, 39, 0, 149, 10], ops: 0x8db69a2393f7d6ac, out: 0xb9eab6ccc5e85e72 }),
    (Hybrid(0.5), 8, 5, 1, [1448, 888, 292], Pin { global: [527, 392, 0, 0, 115, 10], ops: 0x58dbd02427ade699, out: 0xd7f57cd335347677 }),
    (Hybrid(0.5), 8, 2, 3, [1744, 1072, 352], Pin { global: [587, 465, 48, 0, 177, 9], ops: 0x7dd31624943bd077, out: 0xb0c4ff1cb1b8e215 }),
    (Hybrid(0.5), 8, 3, 2, [1744, 1072, 352], Pin { global: [595, 465, 40, 0, 170, 9], ops: 0x20f159ab233a24f8, out: 0xaf2eaa100c5907e6 }),
    (Hybrid(0.5), 8, 4, 4, [4672, 2880, 944], Pin { global: [1667, 1251, 112, 0, 477, 10], ops: 0x1fb9c8b2b83d3016, out: 0xc345df66a81dfb72 }),
    (Hybrid(0.5), 32, 1, 1, [4992, 3008, 250], Pin { global: [2112, 1152, 0, 0, 102, 3], ops: 0xbe8239682890ca18, out: 0xd9bd36dc782973de }),
    (Hybrid(0.5), 32, 1, 5, [24992, 15072, 1252], Pin { global: [7328, 5408, 159, 0, 557, 10], ops: 0x973bbb98960e54db, out: 0x703c7dbe50639ca4 }),
    (Hybrid(0.5), 32, 5, 1, [24992, 15072, 1252], Pin { global: [7487, 5408, 0, 0, 403, 10], ops: 0xfb562afbb571299e, out: 0x81190d671a606fed }),
    (Hybrid(0.5), 32, 2, 3, [30016, 18112, 1504], Pin { global: [8483, 6465, 192, 0, 633, 9], ops: 0x09eb726b59e441df, out: 0xba72be8e41709a14 }),
    (Hybrid(0.5), 32, 3, 2, [30016, 18112, 1504], Pin { global: [8515, 6465, 160, 0, 602, 9], ops: 0x38a3da9f223f5d90, out: 0x4e9ed1aca8b59599 }),
    (Hybrid(0.5), 32, 4, 4, [80128, 48384, 4016], Pin { global: [23531, 17283, 448, 0, 1677, 10], ops: 0xabd071b0ef059b9b, out: 0x03c80a0397501b8a }),
    (Hybrid(1.0), 1, 1, 1, [1, 1, 2], Pin { global: [4, 5, 0, 0, 9, 3], ops: 0x5744facf45d67cc0, out: 0xa87d743227db20ff }),
    (Hybrid(1.0), 1, 1, 5, [6, 6, 12], Pin { global: [16, 14, 0, 0, 30, 10], ops: 0xaf920938f709a261, out: 0x06bf71880ecf8eb1 }),
    (Hybrid(1.0), 1, 5, 1, [6, 6, 12], Pin { global: [16, 14, 0, 0, 30, 10], ops: 0xa03dcbe745ec21b0, out: 0x4d07e66a613c6c03 }),
    (Hybrid(1.0), 1, 2, 3, [13, 13, 26], Pin { global: [40, 35, 0, 0, 75, 7], ops: 0xeecd15d280f3d101, out: 0x2a4a961c8192088f }),
    (Hybrid(1.0), 1, 3, 2, [13, 13, 26], Pin { global: [40, 35, 0, 0, 75, 7], ops: 0x07b03a60d0e7eb05, out: 0x897e5335d149db39 }),
    (Hybrid(1.0), 1, 4, 4, [40, 40, 80], Pin { global: [118, 95, 0, 0, 213, 7], ops: 0x7637a4cb2c899341, out: 0x0112027f65b6e308 }),
    (Hybrid(1.0), 2, 1, 1, [12, 8, 10], Pin { global: [12, 12, 0, 0, 12, 3], ops: 0x3fb0f686c2da6bf4, out: 0xb4dc97bdca152325 }),
    (Hybrid(1.0), 2, 1, 5, [62, 42, 52], Pin { global: [39, 38, 8, 0, 47, 10], ops: 0xfa8b7b014cda56dd, out: 0x124bfc0a8ca024b4 }),
    (Hybrid(1.0), 2, 5, 1, [62, 42, 52], Pin { global: [47, 38, 0, 0, 43, 10], ops: 0x6dfd2c8363d6c182, out: 0x036cf6e9f69c23a2 }),
    (Hybrid(1.0), 2, 2, 3, [86, 62, 74], Pin { global: [94, 80, 8, 0, 98, 7], ops: 0xb52b33c34bac3046, out: 0x242bec01c2c06eaa }),
    (Hybrid(1.0), 2, 3, 2, [86, 62, 74], Pin { global: [96, 80, 6, 0, 97, 7], ops: 0x436a7f8531957104, out: 0xcf10409c71386aa9 }),
    (Hybrid(1.0), 2, 4, 4, [240, 176, 208], Pin { global: [270, 213, 18, 0, 270, 7], ops: 0x1b0af24e3bb80660, out: 0x80095fc06b784702 }),
    (Hybrid(1.0), 3, 1, 1, [33, 21, 18], Pin { global: [24, 21, 0, 0, 15, 3], ops: 0x221df69f00387c93, out: 0x029e4d7a77fa8106 }),
    (Hybrid(1.0), 3, 1, 5, [168, 108, 92], Pin { global: [78, 72, 14, 0, 64, 10], ops: 0x606673327ca3d601, out: 0xa9b8890bf6c9c845 }),
    (Hybrid(1.0), 3, 5, 1, [168, 108, 92], Pin { global: [92, 72, 0, 0, 55, 10], ops: 0xba535714ccbcf0f2, out: 0x4e46ac0507ec975b }),
    (Hybrid(1.0), 3, 2, 3, [219, 147, 122], Pin { global: [174, 137, 14, 0, 120, 7], ops: 0xa00a864ecd1e8881, out: 0xd294727dff8dc511 }),
    (Hybrid(1.0), 3, 3, 2, [219, 147, 122], Pin { global: [179, 137, 9, 0, 117, 7], ops: 0x8616b3b142826fff, out: 0x2d4069b656091488 }),
    (Hybrid(1.0), 3, 4, 4, [600, 408, 336], Pin { global: [495, 363, 27, 0, 324, 7], ops: 0x235771d7b2d2ef0b, out: 0x6e8b44f6b69ccbba }),
    (Hybrid(1.0), 4, 1, 1, [64, 40, 26], Pin { global: [40, 32, 0, 0, 18, 3], ops: 0x71151d2e8cd5a971, out: 0x42f81b0d5b609dda }),
    (Hybrid(1.0), 4, 1, 5, [324, 204, 132], Pin { global: [132, 116, 19, 0, 81, 10], ops: 0x5e34761da9a23ebc, out: 0xf5caa23978710bab }),
    (Hybrid(1.0), 4, 5, 1, [324, 204, 132], Pin { global: [151, 116, 0, 0, 67, 10], ops: 0xa49df5f841d0aa5d, out: 0x1195894132447852 }),
    (Hybrid(1.0), 4, 2, 3, [412, 268, 170], Pin { global: [279, 206, 19, 0, 142, 7], ops: 0xb26d7b6926f539ef, out: 0x3352614a57ed11de }),
    (Hybrid(1.0), 4, 3, 2, [412, 268, 170], Pin { global: [286, 206, 12, 0, 137, 7], ops: 0xaa31a1a2ceca633e, out: 0x1040ef51db65d412 }),
    (Hybrid(1.0), 4, 4, 4, [1120, 736, 464], Pin { global: [784, 545, 36, 0, 378, 7], ops: 0xce6871aae9e5ec6b, out: 0x2a32782760973a70 }),
    (Hybrid(1.0), 8, 1, 1, [288, 176, 58], Pin { global: [144, 96, 0, 0, 30, 3], ops: 0xb2a4a8b1fab4dd0c, out: 0x9f08ed814cd52595 }),
    (Hybrid(1.0), 8, 1, 5, [1448, 888, 292], Pin { global: [488, 392, 39, 0, 149, 10], ops: 0x8db69a2393f7d6ac, out: 0xb9eab6ccc5e85e72 }),
    (Hybrid(1.0), 8, 5, 1, [1448, 888, 292], Pin { global: [527, 392, 0, 0, 115, 10], ops: 0x58dbd02427ade699, out: 0xd7f57cd335347677 }),
    (Hybrid(1.0), 8, 2, 3, [1784, 1112, 362], Pin { global: [939, 602, 39, 0, 230, 7], ops: 0x2f472edb8007a425, out: 0xf02f5f18c7d76e36 }),
    (Hybrid(1.0), 8, 3, 2, [1784, 1112, 362], Pin { global: [954, 602, 24, 0, 217, 7], ops: 0x1446bc49d6c014b0, out: 0xe9c681a29bad7f03 }),
    (Hybrid(1.0), 8, 4, 4, [4800, 3008, 976], Pin { global: [2580, 1593, 72, 0, 594, 7], ops: 0x473def9e7ccec644, out: 0x5de9ee0a65cf76ea }),
    (Hybrid(1.0), 32, 1, 1, [4992, 3008, 250], Pin { global: [2112, 1152, 0, 0, 102, 3], ops: 0xbe8239682890ca18, out: 0xd9bd36dc782973de }),
    (Hybrid(1.0), 32, 1, 5, [24992, 15072, 1252], Pin { global: [7328, 5408, 159, 0, 557, 10], ops: 0x973bbb98960e54db, out: 0x703c7dbe50639ca4 }),
    (Hybrid(1.0), 32, 5, 1, [24992, 15072, 1252], Pin { global: [7487, 5408, 0, 0, 403, 10], ops: 0xfb562afbb571299e, out: 0x81190d671a606fed }),
    (Hybrid(1.0), 32, 2, 3, [30176, 18272, 1514], Pin { global: [12963, 7010, 159, 0, 758, 7], ops: 0x610ba17220ffb6a8, out: 0x724cef60828f3251 }),
    (Hybrid(1.0), 32, 3, 2, [30176, 18272, 1514], Pin { global: [13026, 7010, 96, 0, 697, 7], ops: 0x0d3e19d0042584de, out: 0xdbb38eb9181ae795 }),
    (Hybrid(1.0), 32, 4, 4, [80640, 48896, 4048], Pin { global: [34860, 18633, 288, 0, 1890, 7], ops: 0xf436931bf32bf26b, out: 0x2d03d76605eba7fc }),
    (TwoR2W, 1, 1, 1, [0, 0, 0], Pin { global: [2, 0, 0, 0, 2, 1], ops: 0xe712c7bdc8e75741, out: 0xa87d743227db20ff }),
    (TwoR2W, 1, 1, 5, [0, 0, 0], Pin { global: [10, 4, 0, 0, 14, 1], ops: 0x0933dd07817146c5, out: 0x06bf71880ecf8eb1 }),
    (TwoR2W, 1, 5, 1, [0, 0, 0], Pin { global: [10, 4, 0, 0, 14, 1], ops: 0xd2d1a0282c1ccae5, out: 0x4d07e66a613c6c03 }),
    (TwoR2W, 1, 2, 3, [0, 0, 0], Pin { global: [12, 7, 0, 0, 19, 1], ops: 0x5ba15d09a11d65a5, out: 0x2a4a961c8192088f }),
    (TwoR2W, 1, 3, 2, [0, 0, 0], Pin { global: [12, 7, 0, 0, 19, 1], ops: 0x853a538924c0103d, out: 0x897e5335d149db39 }),
    (TwoR2W, 1, 4, 4, [0, 0, 0], Pin { global: [32, 24, 0, 0, 56, 1], ops: 0xd216e9d6ef3ae2c5, out: 0x42f81b0d5b609dda }),
    (TwoR2W, 2, 1, 1, [0, 0, 0], Pin { global: [4, 2, 4, 2, 9, 1], ops: 0xc5c5efa64cb602c3, out: 0xb4dc97bdca152325 }),
    (TwoR2W, 2, 1, 5, [0, 0, 0], Pin { global: [20, 10, 20, 18, 53, 1], ops: 0x1de29137e207cb51, out: 0x3a530e8543e7dc34 }),
    (TwoR2W, 2, 5, 1, [0, 0, 0], Pin { global: [20, 18, 20, 10, 49, 1], ops: 0xf6808cbfa81753a9, out: 0x036cf6e9f69c23a2 }),
    (TwoR2W, 2, 2, 3, [0, 0, 0], Pin { global: [24, 18, 24, 20, 65, 1], ops: 0x17d624c8e4941fe8, out: 0x9488587d35240a4c }),
    (TwoR2W, 2, 3, 2, [0, 0, 0], Pin { global: [24, 20, 24, 18, 64, 1], ops: 0x0ecf7e334b817fa0, out: 0xb20a2d414a018980 }),
    (TwoR2W, 2, 4, 4, [0, 0, 0], Pin { global: [64, 56, 64, 56, 180, 1], ops: 0xf9af10df3624143a, out: 0x9f08ed814cd52595 }),
    (TwoR2W, 3, 1, 1, [0, 0, 0], Pin { global: [9, 6, 9, 6, 20, 1], ops: 0x51bf31c4c32936d2, out: 0x029e4d7a77fa8106 }),
    (TwoR2W, 3, 1, 5, [0, 0, 0], Pin { global: [45, 30, 45, 42, 112, 1], ops: 0xef39d868b715f112, out: 0xabf50e14284d84aa }),
    (TwoR2W, 3, 5, 1, [0, 0, 0], Pin { global: [45, 42, 45, 30, 104, 1], ops: 0x9452a22600357daa, out: 0xe2f283cc79deae74 }),
    (TwoR2W, 3, 2, 3, [0, 0, 0], Pin { global: [54, 45, 54, 48, 135, 1], ops: 0xf6a9cabff0b7dcac, out: 0xa85977dccaf31eab }),
    (TwoR2W, 3, 3, 2, [0, 0, 0], Pin { global: [54, 48, 54, 45, 133, 1], ops: 0x13c8b0152e81f830, out: 0x355854e2f68227eb }),
    (TwoR2W, 3, 4, 4, [0, 0, 0], Pin { global: [144, 132, 144, 132, 368, 1], ops: 0xe4f8e4b1c81497b6, out: 0x1d8b280f0379c27f }),
    (TwoR2W, 4, 1, 1, [0, 0, 0], Pin { global: [16, 12, 16, 12, 35, 1], ops: 0x0957cdb6f563ea70, out: 0x42f81b0d5b609dda }),
    (TwoR2W, 4, 1, 5, [0, 0, 0], Pin { global: [80, 60, 80, 76, 191, 1], ops: 0x5c158785856e9df0, out: 0x67fbdae03a2762df }),
    (TwoR2W, 4, 5, 1, [0, 0, 0], Pin { global: [80, 76, 80, 60, 179, 1], ops: 0xc291155828616794, out: 0xf065521e146b9966 }),
    (TwoR2W, 4, 2, 3, [0, 0, 0], Pin { global: [96, 84, 96, 88, 229, 1], ops: 0x20f041a58535d9f2, out: 0x5da0270f4f96452d }),
    (TwoR2W, 4, 3, 2, [0, 0, 0], Pin { global: [96, 88, 96, 84, 226, 1], ops: 0xdd16787248d5a2ed, out: 0x1cfa6579ee393228 }),
    (TwoR2W, 4, 4, 4, [0, 0, 0], Pin { global: [256, 240, 256, 240, 620, 1], ops: 0x7f7080a4b68da7b4, out: 0x9eb9678bbb321d16 }),
    (TwoR2W, 8, 1, 1, [0, 0, 0], Pin { global: [64, 56, 64, 56, 135, 1], ops: 0xf8e9ece12ea376f0, out: 0x9f08ed814cd52595 }),
    (TwoR2W, 8, 1, 5, [0, 0, 0], Pin { global: [320, 280, 320, 312, 707, 1], ops: 0xc94f5b589af85a6f, out: 0x0e030f65c6ad32a2 }),
    (TwoR2W, 8, 5, 1, [0, 0, 0], Pin { global: [320, 312, 320, 280, 679, 1], ops: 0x3fd726ed8aaeb544, out: 0x73efe467f8e9394d }),
    (TwoR2W, 8, 2, 3, [0, 0, 0], Pin { global: [384, 360, 384, 368, 845, 1], ops: 0x2a2c502f27e9177a, out: 0x5ef2f4b7d4838dd9 }),
    (TwoR2W, 8, 3, 2, [0, 0, 0], Pin { global: [384, 368, 384, 360, 838, 1], ops: 0x9791bb27c8f2f496, out: 0x7b5e26eeb3d0a0f9 }),
    (TwoR2W, 8, 4, 4, [0, 0, 0], Pin { global: [1024, 992, 1024, 992, 2268, 1], ops: 0x0ecf27ed42159d46, out: 0xd9bd36dc782973de }),
    (TwoR2W, 32, 1, 1, [0, 0, 0], Pin { global: [1024, 992, 1024, 992, 2079, 1], ops: 0x9eb67af19fb94668, out: 0xd9bd36dc782973de }),
    (TwoR2W, 32, 1, 5, [0, 0, 0], Pin { global: [5120, 4960, 5120, 5088, 10523, 1], ops: 0x264c0a467eacf96a, out: 0x9ee9e231134449d4 }),
    (TwoR2W, 32, 5, 1, [0, 0, 0], Pin { global: [5120, 5088, 5120, 4960, 10399, 1], ops: 0xf3bb81f299c989ce, out: 0x2133c9777068fd10 }),
    (TwoR2W, 32, 2, 3, [0, 0, 0], Pin { global: [6144, 6048, 6144, 6080, 12605, 1], ops: 0xf7d7cee5da115dad, out: 0x5cd85fe5a5973a05 }),
    (TwoR2W, 32, 3, 2, [0, 0, 0], Pin { global: [6144, 6080, 6144, 6048, 12574, 1], ops: 0xc32e1daa3a9fbd19, out: 0xbab446b90b934e18 }),
    (TwoR2W, 32, 4, 4, [0, 0, 0], Pin { global: [16384, 16256, 16384, 16256, 33660, 1], ops: 0x9ad67a19965643d3, out: 0x768ffc658760e208 }),
];

/// Golden values of the 1R1W family, one row per `(driver, w, br, bc)` in
/// [`ONE_R1W`] and grid order. The array is `shared_reads, shared_writes,
/// shared_stages, handoff_publishes, handoff_acquires`. The persistent
/// driver runs one resident on the pinning device.
#[rustfmt::skip]
static GOLDEN_ONE_R1W: [(Driver, usize, usize, usize, [u64; 5], Pin); 144] = [
    (OneR1W, 1, 1, 1, [1, 1, 2, 0, 0], Pin { global: [1, 1, 0, 0, 2, 0], ops: 0x8e4ad64ca032efcb, out: 0xa87d743227db20ff }),
    (OneR1W, 1, 1, 5, [5, 5, 10, 0, 0], Pin { global: [9, 5, 0, 0, 14, 4], ops: 0x02664636915760cb, out: 0x06bf71880ecf8eb1 }),
    (OneR1W, 1, 5, 1, [5, 5, 10, 0, 0], Pin { global: [9, 5, 0, 0, 14, 4], ops: 0x02664636915760cb, out: 0x4d07e66a613c6c03 }),
    (OneR1W, 1, 2, 3, [6, 6, 12, 0, 0], Pin { global: [15, 6, 0, 0, 21, 3], ops: 0xa4f7ebaa1ac8af73, out: 0x2a4a961c8192088f }),
    (OneR1W, 1, 3, 2, [6, 6, 12, 0, 0], Pin { global: [15, 6, 0, 0, 21, 3], ops: 0xfe2fa70f6f68736f, out: 0x897e5335d149db39 }),
    (OneR1W, 1, 4, 4, [16, 16, 32, 0, 0], Pin { global: [49, 16, 0, 0, 65, 6], ops: 0x25e10b6b8289e0b1, out: 0x64bd0d978e7e5297 }),
    (OneR1W, 2, 1, 1, [12, 8, 10, 0, 0], Pin { global: [4, 4, 0, 0, 4, 0], ops: 0xc7a2aba6f4d40477, out: 0xb4dc97bdca152325 }),
    (OneR1W, 2, 1, 5, [60, 40, 50, 0, 0], Pin { global: [20, 20, 8, 0, 28, 4], ops: 0x4d15caa6c9253dbf, out: 0x124bfc0a8ca024b4 }),
    (OneR1W, 2, 5, 1, [60, 40, 50, 0, 0], Pin { global: [28, 20, 0, 0, 24, 4], ops: 0x6ef2c2daccb6d0d7, out: 0x036cf6e9f69c23a2 }),
    (OneR1W, 2, 2, 3, [72, 48, 60, 0, 0], Pin { global: [32, 24, 8, 0, 37, 3], ops: 0x830435b80da0c8a5, out: 0x45890cb7e6970c55 }),
    (OneR1W, 2, 3, 2, [72, 48, 60, 0, 0], Pin { global: [34, 24, 6, 0, 36, 3], ops: 0x19d0c11a5d61aa88, out: 0xa39db7808ec369c7 }),
    (OneR1W, 2, 4, 4, [192, 128, 160, 0, 0], Pin { global: [97, 64, 24, 0, 109, 6], ops: 0x3dd73d7e63107f66, out: 0x2fdd5c68e2c6bbd7 }),
    (OneR1W, 3, 1, 1, [33, 21, 18, 0, 0], Pin { global: [9, 9, 0, 0, 6, 0], ops: 0x8cf1b75a04467e41, out: 0x029e4d7a77fa8106 }),
    (OneR1W, 3, 1, 5, [165, 105, 90, 0, 0], Pin { global: [45, 45, 12, 0, 42, 4], ops: 0x014d34afcbef5e91, out: 0xad4f76635f03dba7 }),
    (OneR1W, 3, 5, 1, [165, 105, 90, 0, 0], Pin { global: [57, 45, 0, 0, 34, 4], ops: 0xbeefe11aed516e81, out: 0xaf920110d8c1eb8b }),
    (OneR1W, 3, 2, 3, [198, 126, 108, 0, 0], Pin { global: [65, 54, 12, 0, 53, 3], ops: 0x792c7e4d8722dfde, out: 0xffc79fc52a29f3d8 }),
    (OneR1W, 3, 3, 2, [198, 126, 108, 0, 0], Pin { global: [68, 54, 9, 0, 51, 3], ops: 0x6f554bb2a933fcd3, out: 0xd25aef30d7e7821d }),
    (OneR1W, 3, 4, 4, [528, 336, 288, 0, 0], Pin { global: [189, 144, 36, 0, 153, 6], ops: 0x146243b7eb596bdf, out: 0x4617ff8ccfbe00a4 }),
    (OneR1W, 4, 1, 1, [64, 40, 26, 0, 0], Pin { global: [16, 16, 0, 0, 8, 0], ops: 0xa018cb5484828288, out: 0x42f81b0d5b609dda }),
    (OneR1W, 4, 1, 5, [320, 200, 130, 0, 0], Pin { global: [80, 80, 16, 0, 56, 4], ops: 0x1eccecfab0de9ce0, out: 0xf5caa23978710bab }),
    (OneR1W, 4, 5, 1, [320, 200, 130, 0, 0], Pin { global: [96, 80, 0, 0, 44, 4], ops: 0x0facf615cc961548, out: 0x408b7f7b7e88a4a1 }),
    (OneR1W, 4, 2, 3, [384, 240, 156, 0, 0], Pin { global: [110, 96, 16, 0, 69, 3], ops: 0x3a141f5418956842, out: 0x39d31423ea7d8b05 }),
    (OneR1W, 4, 3, 2, [384, 240, 156, 0, 0], Pin { global: [114, 96, 12, 0, 66, 3], ops: 0xe8178df35dcf0d15, out: 0x06ee2f9f9bc0861b }),
    (OneR1W, 4, 4, 4, [1024, 640, 416, 0, 0], Pin { global: [313, 256, 48, 0, 197, 6], ops: 0x3d254fada5295ccc, out: 0x08fea12eab832215 }),
    (OneR1W, 8, 1, 1, [288, 176, 58, 0, 0], Pin { global: [64, 64, 0, 0, 16, 0], ops: 0x650a1b708759fe17, out: 0x9f08ed814cd52595 }),
    (OneR1W, 8, 1, 5, [1440, 880, 290, 0, 0], Pin { global: [320, 320, 32, 0, 112, 4], ops: 0x4c0ae063725f73d7, out: 0x4b1461b039e0a8d0 }),
    (OneR1W, 8, 5, 1, [1440, 880, 290, 0, 0], Pin { global: [352, 320, 0, 0, 84, 4], ops: 0x7f3fd77cb3be94cf, out: 0x64913d26eb789311 }),
    (OneR1W, 8, 2, 3, [1728, 1056, 348, 0, 0], Pin { global: [410, 384, 32, 0, 133, 3], ops: 0x2e60060c64a31ee6, out: 0x41b09290e051ffe4 }),
    (OneR1W, 8, 3, 2, [1728, 1056, 348, 0, 0], Pin { global: [418, 384, 24, 0, 126, 3], ops: 0x6c73eca877febbb5, out: 0x87abbd219035a29e }),
    (OneR1W, 8, 4, 4, [4608, 2816, 928, 0, 0], Pin { global: [1129, 1024, 96, 0, 373, 6], ops: 0x6f7895bbed875b06, out: 0x29c50d976ca998b6 }),
    (OneR1W, 32, 1, 1, [4992, 3008, 250, 0, 0], Pin { global: [1024, 1024, 0, 0, 64, 0], ops: 0xc8154ce5b5dc29fa, out: 0xd9bd36dc782973de }),
    (OneR1W, 32, 1, 5, [24960, 15040, 1250, 0, 0], Pin { global: [5120, 5120, 128, 0, 448, 4], ops: 0xcbaea76ac4ac83ea, out: 0x9536088575386519 }),
    (OneR1W, 32, 5, 1, [24960, 15040, 1250, 0, 0], Pin { global: [5248, 5120, 0, 0, 324, 4], ops: 0xccf6ff09f4b5ff32, out: 0x4a27b584ea408ec4 }),
    (OneR1W, 32, 2, 3, [29952, 18048, 1500, 0, 0], Pin { global: [6242, 6144, 128, 0, 517, 3], ops: 0xbe6bf163e6682068, out: 0x178076619a8a4e0c }),
    (OneR1W, 32, 3, 2, [29952, 18048, 1500, 0, 0], Pin { global: [6274, 6144, 96, 0, 486, 3], ops: 0xcb757cc962b6513f, out: 0xcb3e7de56ea20e06 }),
    (OneR1W, 32, 4, 4, [79872, 48128, 4000, 0, 0], Pin { global: [16777, 16384, 384, 0, 1429, 6], ops: 0x479c52cec01584a6, out: 0x26a1a8d601b4991a }),
    (Persistent, 1, 1, 1, [1, 1, 2, 0, 0], Pin { global: [1, 1, 0, 0, 2, 0], ops: 0x8e4ad64ca032efcb, out: 0xa87d743227db20ff }),
    (Persistent, 1, 1, 5, [5, 5, 10, 0, 0], Pin { global: [9, 5, 0, 0, 14, 0], ops: 0xe7551676c587cce7, out: 0x06bf71880ecf8eb1 }),
    (Persistent, 1, 5, 1, [5, 5, 10, 4, 4], Pin { global: [13, 9, 0, 0, 22, 0], ops: 0xeef13ed77e08ffc7, out: 0x4d07e66a613c6c03 }),
    (Persistent, 1, 2, 3, [6, 6, 12, 3, 3], Pin { global: [18, 9, 0, 0, 27, 0], ops: 0x6fb6c6bc603b9349, out: 0x2a4a961c8192088f }),
    (Persistent, 1, 3, 2, [6, 6, 12, 4, 4], Pin { global: [19, 10, 0, 0, 29, 0], ops: 0x498c056f389a7d79, out: 0x897e5335d149db39 }),
    (Persistent, 1, 4, 4, [16, 16, 32, 12, 12], Pin { global: [61, 28, 0, 0, 89, 0], ops: 0x188b98bd511661b2, out: 0x64bd0d978e7e5297 }),
    (Persistent, 2, 1, 1, [12, 8, 10, 0, 0], Pin { global: [4, 4, 0, 0, 4, 0], ops: 0xc7a2aba6f4d40477, out: 0xb4dc97bdca152325 }),
    (Persistent, 2, 1, 5, [60, 40, 50, 0, 0], Pin { global: [20, 20, 8, 0, 28, 0], ops: 0xa3847afbb5b5c260, out: 0x124bfc0a8ca024b4 }),
    (Persistent, 2, 5, 1, [60, 40, 50, 4, 4], Pin { global: [32, 24, 0, 0, 32, 0], ops: 0x97b0dd40403f0df8, out: 0x036cf6e9f69c23a2 }),
    (Persistent, 2, 2, 3, [72, 48, 60, 3, 3], Pin { global: [35, 27, 8, 0, 43, 0], ops: 0x522ea3a4f96e74b5, out: 0x45890cb7e6970c55 }),
    (Persistent, 2, 3, 2, [72, 48, 60, 4, 4], Pin { global: [38, 28, 6, 0, 44, 0], ops: 0x21af39a82179a29e, out: 0xa39db7808ec369c7 }),
    (Persistent, 2, 4, 4, [192, 128, 160, 12, 12], Pin { global: [109, 76, 24, 0, 133, 0], ops: 0x21c6a63a09a0dd95, out: 0x2fdd5c68e2c6bbd7 }),
    (Persistent, 3, 1, 1, [33, 21, 18, 0, 0], Pin { global: [9, 9, 0, 0, 6, 0], ops: 0x8cf1b75a04467e41, out: 0x029e4d7a77fa8106 }),
    (Persistent, 3, 1, 5, [165, 105, 90, 0, 0], Pin { global: [45, 45, 12, 0, 42, 0], ops: 0x0f4e68b2c0c64cda, out: 0xad4f76635f03dba7 }),
    (Persistent, 3, 5, 1, [165, 105, 90, 4, 4], Pin { global: [61, 49, 0, 0, 42, 0], ops: 0x82c0ca3428199c5d, out: 0xaf920110d8c1eb8b }),
    (Persistent, 3, 2, 3, [198, 126, 108, 3, 3], Pin { global: [68, 57, 12, 0, 59, 0], ops: 0xca71d0fdc67da6b1, out: 0xffc79fc52a29f3d8 }),
    (Persistent, 3, 3, 2, [198, 126, 108, 4, 4], Pin { global: [72, 58, 9, 0, 59, 0], ops: 0x09f82b47e651fd61, out: 0xd25aef30d7e7821d }),
    (Persistent, 3, 4, 4, [528, 336, 288, 12, 12], Pin { global: [201, 156, 36, 0, 177, 0], ops: 0x00dbac80885dedf6, out: 0x4617ff8ccfbe00a4 }),
    (Persistent, 4, 1, 1, [64, 40, 26, 0, 0], Pin { global: [16, 16, 0, 0, 8, 0], ops: 0xa018cb5484828288, out: 0x42f81b0d5b609dda }),
    (Persistent, 4, 1, 5, [320, 200, 130, 0, 0], Pin { global: [80, 80, 16, 0, 56, 0], ops: 0xf510f065bfad1a4d, out: 0xf5caa23978710bab }),
    (Persistent, 4, 5, 1, [320, 200, 130, 4, 4], Pin { global: [100, 84, 0, 0, 52, 0], ops: 0xd28ab185a8c0633e, out: 0x408b7f7b7e88a4a1 }),
    (Persistent, 4, 2, 3, [384, 240, 156, 3, 3], Pin { global: [113, 99, 16, 0, 75, 0], ops: 0x8f9a77798cc5d5ff, out: 0x39d31423ea7d8b05 }),
    (Persistent, 4, 3, 2, [384, 240, 156, 4, 4], Pin { global: [118, 100, 12, 0, 74, 0], ops: 0x834c014098cdb3bf, out: 0x06ee2f9f9bc0861b }),
    (Persistent, 4, 4, 4, [1024, 640, 416, 12, 12], Pin { global: [325, 268, 48, 0, 221, 0], ops: 0x4ffcff27b749d73e, out: 0x08fea12eab832215 }),
    (Persistent, 8, 1, 1, [288, 176, 58, 0, 0], Pin { global: [64, 64, 0, 0, 16, 0], ops: 0x650a1b708759fe17, out: 0x9f08ed814cd52595 }),
    (Persistent, 8, 1, 5, [1440, 880, 290, 0, 0], Pin { global: [320, 320, 32, 0, 112, 0], ops: 0x29d56cbe84dec2da, out: 0x4b1461b039e0a8d0 }),
    (Persistent, 8, 5, 1, [1440, 880, 290, 4, 4], Pin { global: [356, 324, 0, 0, 92, 0], ops: 0x6e62632533c071a8, out: 0x64913d26eb789311 }),
    (Persistent, 8, 2, 3, [1728, 1056, 348, 3, 3], Pin { global: [413, 387, 32, 0, 139, 0], ops: 0x40b72756cd2827b7, out: 0x41b09290e051ffe4 }),
    (Persistent, 8, 3, 2, [1728, 1056, 348, 4, 4], Pin { global: [422, 388, 24, 0, 134, 0], ops: 0x55c14719cc5b7250, out: 0x87abbd219035a29e }),
    (Persistent, 8, 4, 4, [4608, 2816, 928, 12, 12], Pin { global: [1141, 1036, 96, 0, 397, 0], ops: 0x7c3b0cf87d4f7eb3, out: 0x29c50d976ca998b6 }),
    (Persistent, 32, 1, 1, [4992, 3008, 250, 0, 0], Pin { global: [1024, 1024, 0, 0, 64, 0], ops: 0xc8154ce5b5dc29fa, out: 0xd9bd36dc782973de }),
    (Persistent, 32, 1, 5, [24960, 15040, 1250, 0, 0], Pin { global: [5120, 5120, 128, 0, 448, 0], ops: 0x8388809a889445f1, out: 0x9536088575386519 }),
    (Persistent, 32, 5, 1, [24960, 15040, 1250, 4, 4], Pin { global: [5252, 5124, 0, 0, 332, 0], ops: 0x07481de41d01f7ea, out: 0x4a27b584ea408ec4 }),
    (Persistent, 32, 2, 3, [29952, 18048, 1500, 3, 3], Pin { global: [6245, 6147, 128, 0, 523, 0], ops: 0xaa044e6c54a5dfad, out: 0x178076619a8a4e0c }),
    (Persistent, 32, 3, 2, [29952, 18048, 1500, 4, 4], Pin { global: [6278, 6148, 96, 0, 494, 0], ops: 0xf6c2fb1adeb04ef8, out: 0xcb3e7de56ea20e06 }),
    (Persistent, 32, 4, 4, [79872, 48128, 4000, 12, 12], Pin { global: [16789, 16396, 384, 0, 1453, 0], ops: 0xcf20fcb8d3ed7efb, out: 0x26a1a8d601b4991a }),
    (Mirror, 1, 1, 1, [1, 1, 2, 0, 0], Pin { global: [1, 2, 0, 0, 3, 0], ops: 0xeaa925879ec2acd8, out: 0xa87d743227db20ff }),
    (Mirror, 1, 1, 5, [5, 5, 10, 0, 0], Pin { global: [9, 10, 0, 0, 19, 4], ops: 0x48f57701c2062d40, out: 0x06bf71880ecf8eb1 }),
    (Mirror, 1, 5, 1, [5, 5, 10, 0, 0], Pin { global: [9, 10, 0, 0, 19, 4], ops: 0x48f57701c2062d40, out: 0x4d07e66a613c6c03 }),
    (Mirror, 1, 2, 3, [6, 6, 12, 0, 0], Pin { global: [15, 12, 0, 0, 27, 3], ops: 0x98b9fdf8112c5a30, out: 0x2a4a961c8192088f }),
    (Mirror, 1, 3, 2, [6, 6, 12, 0, 0], Pin { global: [15, 12, 0, 0, 27, 3], ops: 0x78639b3fe526ddbc, out: 0x897e5335d149db39 }),
    (Mirror, 1, 4, 4, [16, 16, 32, 0, 0], Pin { global: [49, 32, 0, 0, 81, 6], ops: 0x14cf59c0285b3ad5, out: 0x64bd0d978e7e5297 }),
    (Mirror, 2, 1, 1, [12, 8, 10, 0, 0], Pin { global: [4, 6, 0, 0, 5, 0], ops: 0xac624d724b3ce405, out: 0xb4dc97bdca152325 }),
    (Mirror, 2, 1, 5, [60, 40, 50, 0, 0], Pin { global: [28, 30, 0, 0, 29, 4], ops: 0xe8c7bd64cf657915, out: 0x124bfc0a8ca024b4 }),
    (Mirror, 2, 5, 1, [60, 40, 50, 0, 0], Pin { global: [28, 30, 0, 0, 29, 4], ops: 0xe8c7bd64cf657915, out: 0x036cf6e9f69c23a2 }),
    (Mirror, 2, 2, 3, [72, 48, 60, 0, 0], Pin { global: [40, 36, 0, 0, 39, 3], ops: 0x80ac14851763d34c, out: 0x45890cb7e6970c55 }),
    (Mirror, 2, 3, 2, [72, 48, 60, 0, 0], Pin { global: [40, 36, 0, 0, 39, 3], ops: 0xb1398de4ff769018, out: 0xa39db7808ec369c7 }),
    (Mirror, 2, 4, 4, [192, 128, 160, 0, 0], Pin { global: [121, 96, 0, 0, 113, 6], ops: 0xfc6946d44be31f22, out: 0x2fdd5c68e2c6bbd7 }),
    (Mirror, 3, 1, 1, [33, 21, 18, 0, 0], Pin { global: [9, 12, 0, 0, 7, 0], ops: 0x4fbf00df097c1229, out: 0x029e4d7a77fa8106 }),
    (Mirror, 3, 1, 5, [165, 105, 90, 0, 0], Pin { global: [57, 60, 0, 0, 39, 4], ops: 0xf7e61615a5ccadf9, out: 0xad4f76635f03dba7 }),
    (Mirror, 3, 5, 1, [165, 105, 90, 0, 0], Pin { global: [57, 60, 0, 0, 39, 4], ops: 0xf7e61615a5ccadf9, out: 0xaf920110d8c1eb8b }),
    (Mirror, 3, 2, 3, [198, 126, 108, 0, 0], Pin { global: [77, 72, 0, 0, 51, 3], ops: 0x29580015c20dc14b, out: 0xffc79fc52a29f3d8 }),
    (Mirror, 3, 3, 2, [198, 126, 108, 0, 0], Pin { global: [77, 72, 0, 0, 51, 3], ops: 0x3488b05a2ab35e2b, out: 0xd25aef30d7e7821d }),
    (Mirror, 3, 4, 4, [528, 336, 288, 0, 0], Pin { global: [225, 192, 0, 0, 145, 6], ops: 0x114c581484a4685a, out: 0x4617ff8ccfbe00a4 }),
    (Mirror, 4, 1, 1, [64, 40, 26, 0, 0], Pin { global: [16, 20, 0, 0, 9, 0], ops: 0xa5a77ad264475622, out: 0x42f81b0d5b609dda }),
    (Mirror, 4, 1, 5, [320, 200, 130, 0, 0], Pin { global: [96, 100, 0, 0, 49, 4], ops: 0xc2612d5f6f13d222, out: 0xf5caa23978710bab }),
    (Mirror, 4, 5, 1, [320, 200, 130, 0, 0], Pin { global: [96, 100, 0, 0, 49, 4], ops: 0xc2612d5f6f13d222, out: 0x408b7f7b7e88a4a1 }),
    (Mirror, 4, 2, 3, [384, 240, 156, 0, 0], Pin { global: [126, 120, 0, 0, 63, 3], ops: 0xf2c14960d30e3d71, out: 0x39d31423ea7d8b05 }),
    (Mirror, 4, 3, 2, [384, 240, 156, 0, 0], Pin { global: [126, 120, 0, 0, 63, 3], ops: 0x3888902c45e8962a, out: 0x06ee2f9f9bc0861b }),
    (Mirror, 4, 4, 4, [1024, 640, 416, 0, 0], Pin { global: [361, 320, 0, 0, 177, 6], ops: 0x0065bbcc8e2a91a0, out: 0x08fea12eab832215 }),
    (Mirror, 8, 1, 1, [288, 176, 58, 0, 0], Pin { global: [64, 72, 0, 0, 17, 0], ops: 0xf0a9f713209bbed3, out: 0x9f08ed814cd52595 }),
    (Mirror, 8, 1, 5, [1440, 880, 290, 0, 0], Pin { global: [352, 360, 0, 0, 89, 4], ops: 0xef67196f9a76d43b, out: 0x4b1461b039e0a8d0 }),
    (Mirror, 8, 5, 1, [1440, 880, 290, 0, 0], Pin { global: [352, 360, 0, 0, 89, 4], ops: 0xef67196f9a76d43b, out: 0x64913d26eb789311 }),
    (Mirror, 8, 2, 3, [1728, 1056, 348, 0, 0], Pin { global: [442, 432, 0, 0, 111, 3], ops: 0xe89537bf2d7a8932, out: 0x41b09290e051ffe4 }),
    (Mirror, 8, 3, 2, [1728, 1056, 348, 0, 0], Pin { global: [442, 432, 0, 0, 111, 3], ops: 0xaa5640c9b91b57bc, out: 0x87abbd219035a29e }),
    (Mirror, 8, 4, 4, [4608, 2816, 928, 0, 0], Pin { global: [1225, 1152, 0, 0, 305, 6], ops: 0x941158e9bdb5eedb, out: 0x29c50d976ca998b6 }),
    (Mirror, 32, 1, 1, [4992, 3008, 250, 0, 0], Pin { global: [1024, 1056, 0, 0, 65, 0], ops: 0x0d52e43c5cac994b, out: 0xd9bd36dc782973de }),
    (Mirror, 32, 1, 5, [24960, 15040, 1250, 0, 0], Pin { global: [5248, 5280, 0, 0, 329, 4], ops: 0xab94b0694d1dcb83, out: 0x9536088575386519 }),
    (Mirror, 32, 5, 1, [24960, 15040, 1250, 0, 0], Pin { global: [5248, 5280, 0, 0, 329, 4], ops: 0xab94b0694d1dcb83, out: 0x4a27b584ea408ec4 }),
    (Mirror, 32, 2, 3, [29952, 18048, 1500, 0, 0], Pin { global: [6370, 6336, 0, 0, 399, 3], ops: 0x3f9fb0be917db161, out: 0x178076619a8a4e0c }),
    (Mirror, 32, 3, 2, [29952, 18048, 1500, 0, 0], Pin { global: [6370, 6336, 0, 0, 399, 3], ops: 0xd20183ad69bcd2f0, out: 0xcb3e7de56ea20e06 }),
    (Mirror, 32, 4, 4, [79872, 48128, 4000, 0, 0], Pin { global: [17161, 16896, 0, 0, 1073, 6], ops: 0x8a9843b3bc4584a3, out: 0x26a1a8d601b4991a }),
    (Batch3, 1, 1, 1, [3, 3, 6, 0, 0], Pin { global: [3, 3, 0, 0, 6, 0], ops: 0x5a0e65529ae3b400, out: 0x9b0a6a056d8aea7f }),
    (Batch3, 1, 1, 5, [15, 15, 30, 0, 0], Pin { global: [27, 15, 0, 0, 42, 4], ops: 0xff42b2dbdcc265a8, out: 0xc21887653de132b1 }),
    (Batch3, 1, 5, 1, [15, 15, 30, 0, 0], Pin { global: [27, 15, 0, 0, 42, 4], ops: 0xff42b2dbdcc265a8, out: 0xeb66bc5b7d7d4082 }),
    (Batch3, 1, 2, 3, [18, 18, 36, 0, 0], Pin { global: [45, 18, 0, 0, 63, 3], ops: 0x5fdfad3e52414d1a, out: 0xe945c081a9860575 }),
    (Batch3, 1, 3, 2, [18, 18, 36, 0, 0], Pin { global: [45, 18, 0, 0, 63, 3], ops: 0x8d788e6f6c09e48f, out: 0x3e4d0773325f2f50 }),
    (Batch3, 1, 4, 4, [48, 48, 96, 0, 0], Pin { global: [147, 48, 0, 0, 195, 6], ops: 0x8bd274cd16c5e78d, out: 0x2832cad918213329 }),
    (Batch3, 2, 1, 1, [36, 24, 30, 0, 0], Pin { global: [12, 12, 0, 0, 12, 0], ops: 0x6fc99e512542424a, out: 0x8fa4373f852ec56d }),
    (Batch3, 2, 1, 5, [180, 120, 150, 0, 0], Pin { global: [60, 60, 24, 0, 84, 4], ops: 0x9ccdc371085ad4ba, out: 0xea12fdb2ef46a1c0 }),
    (Batch3, 2, 5, 1, [180, 120, 150, 0, 0], Pin { global: [84, 60, 0, 0, 72, 4], ops: 0x354984c6830a20a2, out: 0xcfa7d860327483ec }),
    (Batch3, 2, 2, 3, [216, 144, 180, 0, 0], Pin { global: [96, 72, 24, 0, 111, 3], ops: 0xfa6b05208f5a51a2, out: 0xd3f5a0f7597189dd }),
    (Batch3, 2, 3, 2, [216, 144, 180, 0, 0], Pin { global: [102, 72, 18, 0, 108, 3], ops: 0x35ca03d2c2c37dc2, out: 0x3402e23e5b4ecfc2 }),
    (Batch3, 2, 4, 4, [576, 384, 480, 0, 0], Pin { global: [291, 192, 72, 0, 327, 6], ops: 0xfef6adaeb7cfc6a9, out: 0xda32bdc41944bdb2 }),
    (Batch3, 3, 1, 1, [99, 63, 54, 0, 0], Pin { global: [27, 27, 0, 0, 18, 0], ops: 0xd09854582a06bf0a, out: 0x711a2fc43727bf87 }),
    (Batch3, 3, 1, 5, [495, 315, 270, 0, 0], Pin { global: [135, 135, 36, 0, 126, 4], ops: 0xb492ccf1c36025da, out: 0x5bdb06295a42e4f3 }),
    (Batch3, 3, 5, 1, [495, 315, 270, 0, 0], Pin { global: [171, 135, 0, 0, 102, 4], ops: 0xa5b5fbcd7f91c422, out: 0x743025b7ad4267fd }),
    (Batch3, 3, 2, 3, [594, 378, 324, 0, 0], Pin { global: [195, 162, 36, 0, 159, 3], ops: 0x632a68540f03fa33, out: 0x78e65dc9c46876f2 }),
    (Batch3, 3, 3, 2, [594, 378, 324, 0, 0], Pin { global: [204, 162, 27, 0, 153, 3], ops: 0xcfe9a677a8d6e9ef, out: 0xc4ddedc44cc08e9a }),
    (Batch3, 3, 4, 4, [1584, 1008, 864, 0, 0], Pin { global: [567, 432, 108, 0, 459, 6], ops: 0xf339df8a3529e47d, out: 0x110ad2b657b8124a }),
    (Batch3, 4, 1, 1, [192, 120, 78, 0, 0], Pin { global: [48, 48, 0, 0, 24, 0], ops: 0x0b93a279cd4f9bf3, out: 0xb4cc16b400f8c7ec }),
    (Batch3, 4, 1, 5, [960, 600, 390, 0, 0], Pin { global: [240, 240, 48, 0, 168, 4], ops: 0xef0d2cc3ab3e9243, out: 0x3f9253d24fe859ee }),
    (Batch3, 4, 5, 1, [960, 600, 390, 0, 0], Pin { global: [288, 240, 0, 0, 132, 4], ops: 0x88c1d9318662b8f3, out: 0xd8113795919ec0e0 }),
    (Batch3, 4, 2, 3, [1152, 720, 468, 0, 0], Pin { global: [330, 288, 48, 0, 207, 3], ops: 0x41bbf38cd8fb3437, out: 0x95d0565a5e740419 }),
    (Batch3, 4, 3, 2, [1152, 720, 468, 0, 0], Pin { global: [342, 288, 36, 0, 198, 3], ops: 0x10f61588276d7adf, out: 0x95f2e4f1e758353a }),
    (Batch3, 4, 4, 4, [3072, 1920, 1248, 0, 0], Pin { global: [939, 768, 144, 0, 591, 6], ops: 0xc4a787f619eab296, out: 0xb7c5b2d64115da85 }),
    (Batch3, 8, 1, 1, [864, 528, 174, 0, 0], Pin { global: [192, 192, 0, 0, 48, 0], ops: 0xe7c19fb283875acb, out: 0xd4f9e7927d625f79 }),
    (Batch3, 8, 1, 5, [4320, 2640, 870, 0, 0], Pin { global: [960, 960, 96, 0, 336, 4], ops: 0xa705f378faf46edb, out: 0x1e6da2b97dd0dd1c }),
    (Batch3, 8, 5, 1, [4320, 2640, 870, 0, 0], Pin { global: [1056, 960, 0, 0, 252, 4], ops: 0x4cbb5f4f78db5003, out: 0xc3c09e251b48093e }),
    (Batch3, 8, 2, 3, [5184, 3168, 1044, 0, 0], Pin { global: [1230, 1152, 96, 0, 399, 3], ops: 0xe031ba2d7068719f, out: 0xe04b66d05a1df872 }),
    (Batch3, 8, 3, 2, [5184, 3168, 1044, 0, 0], Pin { global: [1254, 1152, 72, 0, 378, 3], ops: 0xaadb431b5c946076, out: 0x81fc60f75e41bb7f }),
    (Batch3, 8, 4, 4, [13824, 8448, 2784, 0, 0], Pin { global: [3387, 3072, 288, 0, 1119, 6], ops: 0x0751cfd0502c196f, out: 0xb78874f5cb1921fe }),
    (Batch3, 32, 1, 1, [14976, 9024, 750, 0, 0], Pin { global: [3072, 3072, 0, 0, 192, 0], ops: 0x2458a23a4ecfedfc, out: 0x0819fe2e58a2a799 }),
    (Batch3, 32, 1, 5, [74880, 45120, 3750, 0, 0], Pin { global: [15360, 15360, 384, 0, 1344, 4], ops: 0xa3a941655dcff0d4, out: 0x5977d9eb843ae5da }),
    (Batch3, 32, 5, 1, [74880, 45120, 3750, 0, 0], Pin { global: [15744, 15360, 0, 0, 972, 4], ops: 0x037d442d72341f84, out: 0x98bc37882a058190 }),
    (Batch3, 32, 2, 3, [89856, 54144, 4500, 0, 0], Pin { global: [18726, 18432, 384, 0, 1551, 3], ops: 0xe04523bfd84ba3f3, out: 0xf3c6b3b0e97cfef5 }),
    (Batch3, 32, 3, 2, [89856, 54144, 4500, 0, 0], Pin { global: [18822, 18432, 288, 0, 1458, 3], ops: 0x79c8022a2de95e2c, out: 0xc4120f143dda166b }),
    (Batch3, 32, 4, 4, [239616, 144384, 12000, 0, 0], Pin { global: [50331, 49152, 1152, 0, 4287, 6], ops: 0x017cfb1c6902857e, out: 0x9ea7957fe54aee4a }),
];

/// Every pinned row, 4R1W's first. The array is the shared counters then
/// the handoff counters, zero but in the 1R1W family's persistent rows.
fn rows() -> impl Iterator<Item = (Driver, usize, usize, usize, [u64; 5], &'static Pin)> {
    let other = |(d, w, br, bc, [r, wr, st], pin): &'static (_, _, _, _, [u64; 3], Pin)| {
        (*d, *w, *br, *bc, [*r, *wr, *st, 0, 0], pin)
    };
    GOLDEN
        .iter()
        .map(|(w, br, bc, pin)| (FourR1W, *w, *br, *bc, [0; 5], pin))
        .chain(GOLDEN_DRIVERS.iter().map(other))
        .chain(
            GOLDEN_ONE_R1W
                .iter()
                .map(|(d, w, br, bc, counts, pin)| (*d, *w, *br, *bc, *counts, pin)),
        )
}

fn device(w: usize, trace: bool) -> Device {
    Device::new(
        DeviceOptions::new(MachineConfig::with_width(w))
            .workers(0)
            .record_trace(trace),
    )
}

/// Integer-valued input, exact in `f64`, so every summation order agrees.
fn integral(rows: usize, cols: usize) -> Matrix<i64> {
    Matrix::from_fn(rows, cols, |i, j| {
        (i as i64 * 37 + j as i64 * 11 + 5) % 23 - 11
    })
}

/// Fractional input: its output bits depend on each driver's summation
/// order (for 4R1W, the per-lane order `+up, +left, −diag`).
fn fractional(rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 131 + j * 71) % 97) as f64 / 7.0 - 6.5
    })
}

fn to_f64(a: &Matrix<i64>) -> Matrix<f64> {
    Matrix::from_fn(a.rows(), a.cols(), |i, j| a.get(i, j) as f64)
}

/// FNV digest of each launch's `(space, kind, ops, stages)` sequence
/// (block boundaries included), folded in launch order.
fn op_digest(trace: &RunTrace) -> u64 {
    fingerprint_bits(trace.launches.iter().map(|launch| {
        fingerprint_bits(launch.blocks.iter().flat_map(|block| {
            std::iter::once(block.len() as u64).chain(block.iter().map(|op| {
                let space = matches!(op.space, MemSpace::Shared) as u64;
                let kind = matches!(op.kind, AccessKind::Write) as u64;
                space | kind << 1 | (op.ops as u64) << 2 | (op.stages as u64) << 34
            }))
        }))
    }))
}

/// The images `driver` computes for the input `a`: `a` itself, or for
/// [`Batch3`] `a` and two copies of it with the rows rotated by one and two.
fn images<T: SatElement>(driver: Driver, a: &Matrix<T>) -> Vec<Matrix<T>> {
    let count = if driver == Batch3 { 3 } else { 1 };
    let rows = a.rows();
    (0..count)
        .map(|k| Matrix::from_fn(rows, a.cols(), |i, j| a.get((i + k) % rows, j)))
        .collect()
}

/// The SATs of [`images`], concatenated.
fn reference<T: SatElement>(driver: Driver, a: &Matrix<T>) -> Vec<T> {
    let sats = images(driver, a)
        .into_iter()
        .map(|m| sat_reference(&m).into_vec());
    sats.flatten().collect()
}

/// `driver` on `a` on `dev`, its outputs concatenated; `checked` attaches
/// the per-word race detector to every buffer.
fn run<T: SatElement>(driver: Driver, dev: &Device, a: &Matrix<T>, checked: bool) -> Vec<T> {
    let (rows, cols) = (a.rows(), a.cols());
    let buffer = |data: Vec<T>| {
        if checked {
            GlobalBuffer::from_vec_checked(data)
        } else {
            GlobalBuffer::from_vec(data)
        }
    };
    let ins: Vec<_> = images(driver, a)
        .iter()
        .map(|m| buffer(m.as_slice().to_vec()))
        .collect();
    let outs: Vec<_> = ins
        .iter()
        .map(|_| buffer(vec![T::ZERO; rows * cols]))
        .collect();
    let (buf, out) = (&ins[0], &outs[0]);
    match driver {
        FourR1W => sat_4r1w(dev, buf, rows, cols),
        TwoR2W => sat_2r2w(dev, buf, rows, cols),
        TwoR1W => sat_2r1w(dev, buf, out, rows, cols),
        Hybrid(r) => sat_hybrid(dev, buf, out, rows, cols, r),
        OneR1W => sat_1r1w(dev, buf, out, rows, cols),
        Persistent => sat_1r1w_persistent(dev, buf, out, rows, cols),
        Mirror => sat_1r1w_mirror(dev, buf, out, rows, cols),
        Batch3 => sat_1r1w_batch(
            dev,
            &ins.iter().collect::<Vec<_>>(),
            &outs.iter().collect::<Vec<_>>(),
            rows,
            cols,
        ),
    }
    let result = match driver {
        FourR1W | TwoR2W => ins,
        _ => outs,
    };
    result
        .into_iter()
        .flat_map(GlobalBuffer::into_vec)
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The global counters of `s`, then its shared and handoff counters.
fn counters(s: CostCounters) -> ([u64; 6], [u64; 5]) {
    let global = [
        s.coalesced_reads,
        s.coalesced_writes,
        s.stride_reads,
        s.stride_writes,
        s.global_stages,
        s.barrier_steps,
    ];
    let rest = [
        s.shared_reads,
        s.shared_writes,
        s.shared_stages,
        s.handoff_publishes,
        s.handoff_acquires,
    ];
    (global, rest)
}

fn measure(driver: Driver, w: usize, br: usize, bc: usize) -> ([u64; 5], Pin) {
    let dev = device(w, true);
    let out = run(driver, &dev, &fractional(br * w, bc * w), false);
    let (global, shared) = counters(dev.stats());
    let launches = if driver == Persistent {
        1
    } else {
        global[5] + 1
    };
    assert_eq!(dev.launches(), launches, "launches = barriers + 1");
    let pin = Pin {
        global,
        ops: op_digest(&dev.take_trace()),
        out: fingerprint_bits(bits(&out)),
    };
    (shared, pin)
}

#[test]
fn golden_tables_cover_the_full_grid() {
    let cells: Vec<_> = GOLDEN.iter().map(|(w, br, bc, _)| (*w, *br, *bc)).collect();
    let want: Vec<_> = WIDTHS
        .iter()
        .flat_map(|&w| BLOCKS.iter().map(move |&(br, bc)| (w, br, bc)))
        .collect();
    assert_eq!(cells, want);
    let cells: Vec<_> = GOLDEN_DRIVERS
        .iter()
        .map(|(d, w, br, bc, _, _)| (*d, *w, *br, *bc))
        .collect();
    let want: Vec<_> = DRIVERS
        .iter()
        .flat_map(|&d| {
            d.widths()
                .iter()
                .flat_map(move |&w| BLOCKS.iter().map(move |&(br, bc)| (d, w, br, bc)))
        })
        .collect();
    assert_eq!(cells, want);
    let cells: Vec<_> = GOLDEN_ONE_R1W
        .iter()
        .map(|(d, w, br, bc, _, _)| (*d, *w, *br, *bc))
        .collect();
    let want: Vec<_> = ONE_R1W
        .iter()
        .flat_map(|&d| {
            WIDTHS
                .iter()
                .flat_map(move |&w| BLOCKS.iter().map(move |&(br, bc)| (d, w, br, bc)))
        })
        .collect();
    assert_eq!(cells, want);
}

#[test]
fn counters_op_traces_and_float_order_match_golden() {
    for (d, w, br, bc, shared, pin) in rows() {
        let (got_shared, got) = measure(d, w, br, bc);
        assert_eq!(
            (got_shared, &got),
            (shared, pin),
            "{d:?} w={w} blocks {br}x{bc}"
        );
    }
}

#[test]
fn output_equals_reference_for_f64_and_i64() {
    for (d, w, br, bc, _, _) in rows() {
        let a = integral(br * w, bc * w);
        let af = to_f64(&a);
        let dev = device(w, false);
        assert_eq!(
            run(d, &dev, &a, false),
            reference(d, &a),
            "i64 {d:?} w={w} {br}x{bc}"
        );
        let want = bits(&reference(d, &af));
        assert_eq!(
            bits(&run(d, &dev, &af, false)),
            want,
            "f64 {d:?} w={w} {br}x{bc}"
        );
    }
}

#[test]
fn race_checked_shuffled_two_workers_match_reference_and_counters() {
    for (d, w, br, bc, shared, pin) in rows() {
        let a = integral(br * w, bc * w);
        let af = to_f64(&a);
        let dev = || {
            let seed = (w * 31 + br * 7 + bc) as u64;
            Device::new(
                DeviceOptions::new(MachineConfig::with_width(w))
                    .workers(2)
                    .order(BlockOrder::Shuffled(seed)),
            )
        };
        let dv = dev();
        assert_eq!(
            run(d, &dv, &a, true),
            reference(d, &a),
            "i64 {d:?} w={w} {br}x{bc}"
        );
        assert_eq!(
            counters(dv.stats()),
            (pin.global, shared),
            "i64 {d:?} w={w} {br}x{bc}"
        );
        let dv = dev();
        let want = bits(&reference(d, &af));
        assert_eq!(
            bits(&run(d, &dv, &af, true)),
            want,
            "f64 {d:?} w={w} {br}x{bc}"
        );
        assert_eq!(
            counters(dv.stats()),
            (pin.global, shared),
            "f64 {d:?} w={w} {br}x{bc}"
        );
    }
}

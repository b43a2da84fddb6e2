//! Seeded multi-file mini-C workspaces and the verdicts they must get.
//!
//! Every file `fI.c` holds `communities` independent pointer chains in
//! one entry function `fI_ent`. Chain `j` starts at `&fI_aj`, picks up
//! `&fI_bj` on a branch halfway down, takes one hop through a double
//! pointer just after, and ends in a dereference. With `helpers > 0`
//! each copy goes through one of the file's branchy identity helpers, so
//! the chain needs context-sensitive summaries and all chains of a file
//! share one alias partition; with `helpers == 0` the copies are direct
//! and no two chains share an alias partition. A file
//! may carry the injected bug: a branch-dependent `NULL` on the last
//! pointer of chain 0. The generator knows which files carry it, so the
//! expected `null-deref` warnings come from the generator, never from
//! the analysis under test.

use std::collections::{BTreeMap, BTreeSet};

/// The size knobs of one workload's workspace.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Source files besides `main.c`.
    pub files: usize,
    /// Independent pointer chains per file.
    pub communities: usize,
    /// Pointers per chain.
    pub chain: usize,
    /// Branchy identity helpers per file (0: direct copies).
    pub helpers: usize,
}

/// SplitMix64: a small seeded generator, so a seed names the inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

pub fn file_name(i: usize) -> String {
    format!("f{i:03}.c")
}

pub fn entry_name(i: usize) -> String {
    format!("f{i}_ent")
}

/// The pointer chain `j` of file `i` dereferences last.
pub fn last_ptr(shape: &Shape, i: usize, j: usize) -> String {
    format!("f{i}_q{j}_{}", shape.chain - 1)
}

/// Source text of file `i`, with or without the injected NULL.
pub fn file_source(shape: &Shape, i: usize, buggy: bool) -> String {
    let p = format!("f{i}_");
    let mut s = format!("int {p}k;\n");
    for j in 0..shape.communities {
        s.push_str(&format!(
            "int {p}a{j}; int {p}b{j}; int {p}x{j}; int **{p}w{j};\n"
        ));
        for k in 0..shape.chain {
            s.push_str(&format!("int *{p}q{j}_{k};\n"));
        }
    }
    for h in 0..shape.helpers {
        s.push_str(&format!(
            "int *{p}id{h}(int *{p}r{h}) {{ if ({p}k) {{ return {p}r{h}; }} return {p}r{h}; }}\n"
        ));
    }
    s.push_str(&format!("void {p}ent() {{\n"));
    for j in 0..shape.communities {
        let q = |k: usize| format!("{p}q{j}_{k}");
        s.push_str(&format!("    {} = &{p}a{j};\n", q(0)));
        let mid = shape.chain / 2;
        for k in 1..shape.chain {
            if k == mid + 1 {
                // One hop through a double pointer: the engine resolves
                // `*w` through the FSCI points-to oracle.
                s.push_str(&format!("    {p}w{j} = &{};\n", q(mid)));
                s.push_str(&format!("    {} = *{p}w{j};\n", q(k)));
            } else if shape.helpers == 0 {
                s.push_str(&format!("    {} = {};\n", q(k), q(k - 1)));
            } else {
                s.push_str(&format!(
                    "    {} = {p}id{}({});\n",
                    q(k),
                    k % shape.helpers,
                    q(k - 1)
                ));
            }
            if k == mid {
                s.push_str(&format!("    if ({p}k) {{ {} = &{p}b{j}; }}\n", q(k)));
            }
        }
        if j == 0 && buggy {
            s.push_str(&format!(
                "    if ({p}k) {{ {} = NULL; }}\n",
                q(shape.chain - 1)
            ));
        }
        s.push_str(&format!("    {p}x{j} = *{};\n", q(shape.chain - 1)));
    }
    s.push_str("}\n");
    s
}

fn main_source(files: usize) -> String {
    let calls: String = (0..files)
        .map(|i| format!("{}(); ", entry_name(i)))
        .collect();
    format!("void main() {{ {calls}}}\n")
}

/// A workspace and which of its files carry the injected NULL.
#[derive(Clone, Debug)]
pub struct Workspace {
    pub shape: Shape,
    pub buggy: Vec<bool>,
}

impl Workspace {
    /// A quarter of the files, drawn from `rng`, start out buggy.
    pub fn generate(shape: Shape, rng: &mut Rng) -> Workspace {
        let buggy = (0..shape.files).map(|_| rng.below(4) == 0).collect();
        Workspace { shape, buggy }
    }

    pub fn sources(&self) -> BTreeMap<String, String> {
        let mut files: BTreeMap<String, String> = self
            .buggy
            .iter()
            .enumerate()
            .map(|(i, &b)| (file_name(i), file_source(&self.shape, i, b)))
            .collect();
        files.insert("main.c".to_string(), main_source(self.shape.files));
        files
    }

    /// Toggles the injected NULL in file `i`; returns the new source.
    pub fn toggle(&mut self, i: usize) -> String {
        self.buggy[i] = !self.buggy[i];
        file_source(&self.shape, i, self.buggy[i])
    }

    /// The entry functions that must get exactly one `null-deref`
    /// warning each; no other finding is expected.
    pub fn expected_warnings(&self) -> BTreeSet<String> {
        self.buggy
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| entry_name(i))
            .collect()
    }
}

/// FNV-1a over every file name and text, so a result names its inputs.
pub fn input_hash(files: &BTreeMap<String, String>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, text) in files {
        for b in name.bytes().chain([0u8]).chain(text.bytes()).chain([0u8]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

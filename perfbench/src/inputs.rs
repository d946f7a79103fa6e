//! Seeded input generation. Every module and every request payload the
//! program receives is generated here from the run seed with
//! `f3m-workloads`, written out as IR text, and read back from disk.

use std::path::{Path, PathBuf};

use f3m::ir::module::Module;
use f3m::ir::printer::{print_function, print_module};
use f3m::workloads::suite::{table1, SizeClass, WorkloadSpec};

use crate::util::{sub_seed, Rng};

/// One generated module: its name, IR file and text.
#[derive(Clone)]
pub struct Source {
    pub name: String,
    pub path: PathBuf,
    pub text: String,
}

/// One pre-generated `update`: replace `dst`'s body in `module` with the
/// body of its same-signature family sibling `src`.
#[derive(Clone)]
pub struct Edit {
    pub module: String,
    pub dst: String,
    pub src: String,
    /// Module-wrapped IR holding just the new body and the declarations
    /// it references, as written to disk.
    pub patch: String,
}

/// The reduced Table I suite the figure binaries use (small class at
/// full size, medium at 0.5, large at 0.1, chrome-scale at 0.05), with
/// every module's generator seed mixed with the run seed.
pub fn suite_specs(seed: u64) -> Vec<WorkloadSpec> {
    table1()
        .into_iter()
        .map(|spec| {
            let factor = match spec.class {
                SizeClass::Small => 1.0,
                SizeClass::Medium => 0.5,
                SizeClass::Large if spec.name == "chrome-scale" => 0.05,
                SizeClass::Large => 0.1,
            };
            let mut s = spec.scaled(factor);
            s.seed = sub_seed(seed, spec.seed);
            s
        })
        .collect()
}

/// `count` modules `<prefix>0..` of `functions` functions each, shaped
/// like the suite's `429.mcf` entry (65 % of functions in clone
/// families of mean size 4, 42 instructions on average).
pub fn corpus_specs(seed: u64, prefix: &str, count: usize, functions: usize) -> Vec<WorkloadSpec> {
    let base = table1().into_iter().next().expect("Table I is not empty");
    (0..count)
        .map(|i| {
            let mut s = base.clone();
            s.functions = functions;
            s.seed = sub_seed(seed, 1000 + i as u64 + prefix.len() as u64 * 7919);
            s
        })
        .collect()
}

/// Generates the modules for `specs`, renames them `names` (when given)
/// and writes each as `<dir>/<name>.ir`.
pub fn write_modules(dir: &Path, specs: &[WorkloadSpec], names: Option<&[String]>) -> Vec<Source> {
    std::fs::create_dir_all(dir).expect("create input directory");
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut m = f3m::workloads::suite::build_module(spec);
            if let Some(names) = names {
                m.name = names[i].clone();
            }
            let path = dir.join(format!("{}.ir", m.name));
            std::fs::write(&path, print_module(&m)).expect("write module IR");
            let text = std::fs::read_to_string(&path).expect("read module IR back");
            Source {
                name: m.name.clone(),
                path,
                text,
            }
        })
        .collect()
}

/// Names `<prefix>0 .. <prefix>{n-1}`.
pub fn numbered(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}")).collect()
}

/// Parses a generated module; generated inputs always parse.
pub fn parse(src: &Source) -> Module {
    f3m::ir::parser::parse_module(&src.text).expect("generated module parses")
}

/// Body-swap candidates of one module: `(dst, src)` members of one clone
/// family with identical signatures and different printed bodies.
fn swap_pairs(m: &Module) -> Vec<(String, String)> {
    let mut families: std::collections::BTreeMap<&str, Vec<f3m::ir::ids::FuncId>> =
        Default::default();
    for f in m.defined_functions() {
        let func = m.function(f);
        if func.num_linked_insts() == 0 {
            continue;
        }
        if let Some((fam, _)) = func.name.rsplit_once('_') {
            if fam.starts_with('f') {
                families.entry(fam).or_default().push(f);
            }
        }
    }
    let body = |f| {
        let text = print_function(m, f);
        text.split_once('\n')
            .map(|(_, b)| b.to_string())
            .unwrap_or_default()
    };
    let mut pairs = Vec::new();
    for members in families.values() {
        for &a in members {
            for &b in members {
                let (fa, fb) = (m.function(a), m.function(b));
                if a != b && fa.params == fb.params && fa.ret_ty == fb.ret_ty && body(a) != body(b)
                {
                    pairs.push((fa.name.clone(), fb.name.clone()));
                }
            }
        }
    }
    pairs
}

/// Module-wrapped IR defining `dst` with `src`'s body: `dst`'s own
/// header line over `src`'s blocks, plus a declaration of every function
/// the body calls.
fn patch_text(m: &Module, text: &str, dst: &str, src: &str) -> String {
    let d = m.lookup_function(dst).expect("dst exists");
    let s = m.lookup_function(src).expect("src exists");
    let dst_text = print_function(m, d);
    let src_text = print_function(m, s);
    let header = dst_text.split_once('\n').expect("function header").0;
    let body = src_text.split_once('\n').expect("function header").1;
    let mut out = format!("module \"{}\" {{\n", m.name);
    for (_, f) in m.functions() {
        let callee = format!("@{}(", f.name);
        if !body.contains(&callee) {
            continue;
        }
        assert!(
            f.is_declaration,
            "generated body of {src} calls defined function {}",
            f.name
        );
        let decl = text
            .lines()
            .find(|l| l.starts_with("declare ") && l.contains(&callee))
            .expect("declared functions print as `declare` lines");
        out.push_str(decl);
        out.push('\n');
    }
    out.push_str(header);
    out.push('\n');
    out.push_str(body);
    out.push_str("}\n");
    out
}

/// A seeded sequence of `n` edits spread over `modules`, each targeting
/// a function no earlier edit touched (so every edit changes a body).
/// Patches are written to `<dir>/edit<i>.ir` and read back.
pub fn edits(
    dir: &Path,
    sources: &[Source],
    modules: &[(String, Module)],
    n: usize,
    seed: u64,
) -> Vec<Edit> {
    std::fs::create_dir_all(dir).expect("create edit directory");
    let mut rng = Rng::new(sub_seed(seed, 0xED17));
    let mut pools: Vec<Vec<(String, String)>> =
        modules.iter().map(|(_, m)| swap_pairs(m)).collect();
    let mut touched = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    let mut i = 0;
    while out.len() < n {
        let mi = i % modules.len();
        i += 1;
        let pool = &mut pools[mi];
        let (name, m) = &modules[mi];
        // Neither side may have been edited before: the source body must
        // still be the generated one, and the target must change.
        pool.retain(|(d, s)| {
            !touched.contains(&(name.clone(), d.clone()))
                && !touched.contains(&(name.clone(), s.clone()))
        });
        assert!(!pool.is_empty(), "module {name} ran out of body-swap pairs");
        let (dst, src) = pool.swap_remove(rng.below(pool.len()));
        touched.insert((name.clone(), dst.clone()));
        let path = dir.join(format!("edit{}.ir", out.len()));
        std::fs::write(&path, patch_text(m, &sources[mi].text, &dst, &src)).expect("write edit IR");
        let patch = std::fs::read_to_string(&path).expect("read edit IR back");
        out.push(Edit {
            module: name.clone(),
            dst,
            src,
            patch,
        });
    }
    out
}

/// Applies an edit to a local copy of its module (the reference for the
/// rebuild check): `dst` takes `src`'s body, keeping its own name and
/// linkage.
pub fn apply_edit(m: &mut Module, e: &Edit) {
    let d = m.lookup_function(&e.dst).expect("dst exists");
    let s = m.lookup_function(&e.src).expect("src exists");
    let mut f = m.function(s).clone();
    f.name = e.dst.clone();
    f.linkage = m.function(d).linkage;
    m.replace_function(d, f);
}

/// A seeded batch of `n` single-function query targets `(module, func)`,
/// spread round-robin over every module.
pub fn fn_targets(modules: &[(String, Module)], n: usize, seed: u64) -> Vec<(String, String)> {
    let mut rng = Rng::new(sub_seed(seed, 0xF00D));
    let eligible: Vec<Vec<String>> = modules
        .iter()
        .map(|(_, m)| {
            m.defined_functions()
                .into_iter()
                .filter(|&f| m.function(f).num_linked_insts() > 0)
                .map(|f| m.function(f).name.clone())
                .collect()
        })
        .collect();
    (0..n)
        .map(|i| {
            let mi = i % modules.len();
            let names = &eligible[mi];
            (modules[mi].0.clone(), names[rng.below(names.len())].clone())
        })
        .collect()
}

//! File loading, `include` resolution, the bundled corpus, and the
//! scenario-aware target resolver.
//!
//! A scenario file may `include "relative/path"` fragments (shared decoy
//! inventories, common handler libraries); the loader splices each
//! fragment's items at the directive's position and rejects include
//! cycles with the span of the offending directive.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use csnake_core::{CsnakeError, TargetSystem};

use crate::ast::{Item, ScenarioSpec};
use crate::compile::{compile, ScenarioSystem};
use crate::parser::{assemble, parse_items};
use crate::ScenarioError;

/// File extension of scenario specs.
pub const SCENARIO_EXT: &str = "csnake-scn";

/// Parses a self-contained source string (no `include`s) into a spec.
pub fn parse_str(src: &str) -> Result<ScenarioSpec, ScenarioError> {
    assemble(parse_items(src)?)
}

/// Loads, include-resolves and parses a scenario file into a spec.
pub fn load_spec_file(path: impl AsRef<Path>) -> Result<ScenarioSpec, ScenarioError> {
    let path = path.as_ref();
    let mut stack = Vec::new();
    let items = load_items(path, &mut stack)?;
    assemble(items).map_err(|e| e.with_path(path))
}

/// Loads and compiles a scenario file into a runnable target system.
pub fn load_file(path: impl AsRef<Path>) -> Result<ScenarioSystem, ScenarioError> {
    let path = path.as_ref();
    let spec = load_spec_file(path)?;
    compile(&spec).map_err(|e| e.with_path(path))
}

fn read_source(path: &Path) -> Result<String, ScenarioError> {
    std::fs::read_to_string(path).map_err(|e| {
        ScenarioError::general(format!("cannot read scenario file: {e}")).with_path(path)
    })
}

/// Stable identity of a file for cycle detection; canonicalization
/// follows symlinks so `a.scn -> b.scn -> a.scn` is caught regardless of
/// how the paths are spelled.
fn file_key(path: &Path) -> PathBuf {
    std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf())
}

fn load_items(path: &Path, stack: &mut Vec<PathBuf>) -> Result<Vec<Item>, ScenarioError> {
    let key = file_key(path);
    if stack.contains(&key) {
        let chain: Vec<String> = stack
            .iter()
            .map(|p| p.display().to_string())
            .chain([key.display().to_string()])
            .collect();
        return Err(ScenarioError::general(format!(
            "cyclic include: {}",
            chain.join(" -> ")
        )));
    }
    stack.push(key);
    let src = read_source(path)?;
    let raw = parse_items(&src).map_err(|e| e.with_path(path))?;
    let mut out = Vec::with_capacity(raw.len());
    for item in raw {
        match item {
            Item::Include { path: rel, span } => {
                let target = path.parent().unwrap_or_else(|| Path::new(".")).join(&rel);
                let mut included = load_items(&target, stack).map_err(|mut e| {
                    if e.span.is_none() {
                        e.span = Some(span);
                    }
                    if e.path.is_none() {
                        e = e.with_path(path);
                    }
                    e
                })?;
                out.append(&mut included);
            }
            other => out.push(other),
        }
    }
    stack.pop();
    Ok(out)
}

/// The bundled scenario corpus directory: `$CSNAKE_SCENARIO_DIR` when
/// set, otherwise the workspace's `scenarios/` directory.
#[allow(clippy::disallowed_methods)] // documented override of the corpus location
pub fn corpus_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CSNAKE_SCENARIO_DIR") {
        return PathBuf::from(dir);
    }
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios"))
}

/// Parses every `*.csnake-scn` file in the corpus, keyed by declared
/// scenario name, in deterministic (name) order.
pub fn corpus_specs() -> Result<BTreeMap<String, (PathBuf, ScenarioSpec)>, ScenarioError> {
    corpus_specs_in(&corpus_dir())
}

/// Like [`corpus_specs`] for an explicit directory.
pub fn corpus_specs_in(
    dir: &Path,
) -> Result<BTreeMap<String, (PathBuf, ScenarioSpec)>, ScenarioError> {
    let mut out = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| {
        ScenarioError::general(format!("cannot read scenario directory: {e}")).with_path(dir)
    })?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some(SCENARIO_EXT))
        .collect();
    paths.sort();
    for path in paths {
        let spec = load_spec_file(&path)?;
        let name = spec.name.name.clone();
        if let Some((prev, _)) = out.insert(name.clone(), (path.clone(), spec)) {
            return Err(ScenarioError::general(format!(
                "duplicate scenario name `{name}` ({} and {})",
                prev.display(),
                path.display()
            )));
        }
    }
    Ok(out)
}

/// Resolves a target by name: the hand-coded builtins first, then the
/// scenario corpus by declared scenario name. Unknown names are a typed
/// [`CsnakeError::InvalidTarget`] listing every known name — builtin and
/// scenario-file-loaded alike.
pub fn by_name(name: &str) -> Result<Box<dyn TargetSystem>, CsnakeError> {
    by_name_in(name, &corpus_dir())
}

/// Like [`by_name`] with an explicit corpus directory.
pub fn by_name_in(name: &str, dir: &Path) -> Result<Box<dyn TargetSystem>, CsnakeError> {
    if let Ok(t) = csnake_targets::by_name(name) {
        return Ok(t);
    }
    // Workload pseudo-targets carry their own prefix, so a `workload:`
    // name is always theirs — let that resolver produce the hit or the
    // (more specific) unknown-pseudo-target error.
    if name.starts_with(csnake_workload::PSEUDO_TARGET_PREFIX) {
        return csnake_workload::by_name(name);
    }
    // No corpus directory at all just narrows the known-name list, but a
    // directory that fails to load (one malformed spec, duplicate names)
    // must surface: swallowing it would misreport every valid corpus
    // scenario as "unknown target".
    let corpus = if dir.is_dir() {
        corpus_specs_in(dir).map_err(|e| {
            CsnakeError::InvalidTarget(format!(
                "cannot resolve {name:?}: scenario corpus under {} failed to load: {e}",
                dir.display()
            ))
        })?
    } else {
        Default::default()
    };
    if let Some((path, spec)) = corpus.get(name) {
        let system =
            compile(spec).map_err(|e| CsnakeError::InvalidTarget(e.with_path(path).to_string()))?;
        return Ok(Box::new(system));
    }
    let mut known = csnake_targets::builtin_names()
        .into_iter()
        .map(str::to_string)
        .collect::<Vec<_>>();
    known.extend(corpus.keys().filter(|n| n.as_str() != "toy").cloned());
    known.extend(
        csnake_workload::pseudo_target_names()
            .into_iter()
            .map(str::to_string),
    );
    // Deterministic sorted order: the builtin list is declaration-ordered
    // and the corpus is directory-derived, so without the sort the message
    // depends on registration/readdir order and snapshot tests on it flap.
    known.sort();
    known.dedup();
    Err(CsnakeError::InvalidTarget(format!(
        "unknown target {name:?}; known targets: {}",
        known.join(", ")
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("csnake-scenario-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const BASE: &str = r#"
        scenario inc-demo
        component S { queue q }
        fn f = "X.f"
        include "points.scn-inc"
        handler T fn f {
          loop l drain q { advance 1ms }
          sched T after 1s
        }
        workload w "d" { horizon 5s sched T after 10ms }
    "#;

    #[test]
    fn includes_splice_fragment_items_in_place() {
        let dir = tmp_dir("inc");
        std::fs::write(dir.join("main.csnake-scn"), BASE).unwrap();
        std::fs::write(dir.join("points.scn-inc"), "loop l at f:1 io\n").unwrap();
        let spec = load_spec_file(dir.join("main.csnake-scn")).unwrap();
        assert_eq!(spec.points.len(), 1);
        assert_eq!(spec.points[0].label.name, "l");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cyclic_includes_are_rejected() {
        let dir = tmp_dir("cycle");
        std::fs::write(
            dir.join("a.csnake-scn"),
            "scenario a\ninclude \"b.scn-inc\"\n",
        )
        .unwrap();
        std::fs::write(dir.join("b.scn-inc"), "include \"c.scn-inc\"\n").unwrap();
        std::fs::write(dir.join("c.scn-inc"), "include \"b.scn-inc\"\n").unwrap();
        let err = load_spec_file(dir.join("a.csnake-scn")).unwrap_err();
        assert!(err.message.contains("cyclic include"), "{err}");
        assert!(err.message.contains("b.scn-inc"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_include_reports_the_directive_site() {
        let dir = tmp_dir("missing");
        std::fs::write(
            dir.join("a.csnake-scn"),
            "scenario a\ninclude \"nope.scn-inc\"\n",
        )
        .unwrap();
        let err = load_spec_file(dir.join("a.csnake-scn")).unwrap_err();
        assert!(err.message.contains("cannot read"), "{err}");
        assert_eq!(err.span.unwrap().line, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn broken_corpus_surfaces_instead_of_unknown_target() {
        let dir = tmp_dir("byname-broken");
        std::fs::write(dir.join("good.csnake-scn"), BASE).unwrap();
        std::fs::write(dir.join("points.scn-inc"), "loop l at f:1 io\n").unwrap();
        std::fs::write(dir.join("bad.csnake-scn"), "scenario bad\nloop l at\n").unwrap();
        let msg = match by_name_in("inc-demo", &dir) {
            Err(e) => e.to_string(),
            Ok(t) => panic!("unexpectedly resolved {:?}", t.name()),
        };
        assert!(msg.contains("corpus"), "{msg}");
        assert!(msg.contains("bad.csnake-scn"), "{msg}");
        assert!(!msg.contains("unknown target"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn by_name_prefers_builtins_and_lists_all_known() {
        let dir = tmp_dir("byname-empty");
        let toy = by_name_in("toy", &dir).unwrap();
        assert_eq!(toy.name(), "toy");
        let msg = match by_name_in("no-such-system", &dir) {
            Err(e) => e.to_string(),
            Ok(t) => panic!("unexpectedly resolved {:?}", t.name()),
        };
        assert!(msg.contains("no-such-system"), "{msg}");
        assert!(msg.contains("mini-hdfs2"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workload_pseudo_targets_resolve_and_are_listed() {
        let dir = tmp_dir("byname-workload");
        let wl = by_name_in("workload:poisson", &dir).unwrap();
        assert_eq!(wl.name(), "workload:poisson");
        // Unknown plain names list the workload pseudo-targets next to the
        // builtins.
        let msg = match by_name_in("no-such-system", &dir) {
            Err(e) => e.to_string(),
            Ok(t) => panic!("unexpectedly resolved {:?}", t.name()),
        };
        for name in csnake_workload::pseudo_target_names() {
            assert!(msg.contains(name), "{msg}");
        }
        // An unknown `workload:` name gets the workload resolver's own,
        // more specific error.
        let msg = match by_name_in("workload:nope", &dir) {
            Err(e) => e.to_string(),
            Ok(t) => panic!("unexpectedly resolved {:?}", t.name()),
        };
        assert!(msg.contains("unknown workload pseudo-target"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

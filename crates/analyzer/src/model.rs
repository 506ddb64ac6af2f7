//! Workspace discovery and the per-file model every rule consumes.

use crate::findings::{parse_allows, Allow, Finding};
use crate::lexer::{lex, Lexed};
use crate::outline::{outline, Outline};
use std::path::{Path, PathBuf};

/// One source file, lexed and outlined.
pub struct FileModel {
    /// Absolute path.
    pub path: PathBuf,
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// The crate the file belongs to (`array`, `engine`, …; `root` for
    /// the facade crate's `src/`).
    pub crate_name: String,
    /// Source lines.
    pub lines: Vec<String>,
    /// Token and comment streams.
    pub lexed: Lexed,
    /// Structural outline.
    pub outline: Outline,
    /// Parsed allow directives.
    pub allows: Vec<Allow>,
    /// Malformed allow directives (already findings).
    pub malformed_allows: Vec<Finding>,
}

impl FileModel {
    /// Builds the model for one file's source text.
    pub fn from_source(path: PathBuf, rel: String, crate_name: String, src: &str) -> Self {
        let lexed = lex(src);
        let outline = outline(&lexed);
        let lines: Vec<String> = src.lines().map(|l| l.to_string()).collect();
        let mut code_lines = vec![false; lines.len() + 2];
        for t in &lexed.tokens {
            if let Some(slot) = code_lines.get_mut((t.line as usize).saturating_sub(1)) {
                *slot = true;
            }
        }
        let (allows, mut malformed) = parse_allows(&lexed.comments, &lines, &code_lines);
        for f in &mut malformed {
            f.file = rel.clone();
        }
        FileModel {
            path,
            rel,
            crate_name,
            lines,
            lexed,
            outline,
            allows,
            malformed_allows: malformed,
        }
    }

    /// Creates a finding anchored at a token position in this file.
    pub fn finding(&self, rule: &'static str, line: u32, col: u32, message: String) -> Finding {
        Finding {
            rule,
            file: self.rel.clone(),
            line,
            col,
            message,
            allowed: None,
        }
    }
}

/// The whole scanned workspace.
pub struct Model {
    /// Every scanned file, sorted by relative path.
    pub files: Vec<FileModel>,
}

impl Model {
    /// Scans library sources under `root`: `crates/*/src/**/*.rs` and the
    /// facade crate's `src/**/*.rs`. Vendored shims (`vendor/`), tests,
    /// benches, examples, and the analyzer's own fixtures are not
    /// library query paths and are skipped.
    ///
    /// # Errors
    /// I/O errors reading the tree.
    pub fn scan_workspace(root: &Path) -> std::io::Result<Model> {
        let mut files = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut crates: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            crates.sort();
            for c in crates {
                let name = c
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                // The analyzer is a dev tool, not a query path — and its
                // sources quote rule syntax in doc comments, which would
                // read as malformed directives.
                if name == "analyzer" {
                    continue;
                }
                collect_rs_files(&c.join("src"), root, &name, &mut files)?;
            }
        }
        collect_rs_files(&root.join("src"), root, "root", &mut files)?;
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Model { files })
    }

    /// Builds a model from explicit `(rel_path, source)` pairs — the
    /// fixture entry point used by the analyzer's own tests.
    pub fn from_sources(sources: &[(&str, &str)]) -> Model {
        let mut files: Vec<FileModel> = sources
            .iter()
            .map(|(rel, src)| {
                let crate_name = rel
                    .strip_prefix("crates/")
                    .and_then(|r| r.split('/').next())
                    .unwrap_or("root")
                    .to_string();
                FileModel::from_source(PathBuf::from(rel), rel.to_string(), crate_name, src)
            })
            .collect();
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Model { files }
    }
}

/// Reads and models every `.rs` file under `dir`.
fn collect_rs_files(
    dir: &Path,
    root: &Path,
    crate_name: &str,
    out: &mut Vec<FileModel>,
) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs_files(&p, root, crate_name, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(&p)?;
            out.push(FileModel::from_source(p, rel, crate_name.to_string(), &src));
        }
    }
    Ok(())
}

//! Crash-consistency lints for `// analyze: journal` regions.
//!
//! The journal idiom (implemented once in `bulk::journal`, which the scan
//! journal of `bulk::checkpoint` and the lease ledger of
//! `bulk::shard::coordinator` are built on; `bulk::store` shares its header
//! conventions and fsyncs its one-shot write) is: every record is
//! appended with `write_all` and made durable with `sync_data` *before*
//! the operation reports success; the magic+header commit is a single
//! append (no torn half-header can ever look valid); and every replay
//! path trims or classifies a torn tail instead of trusting it. These
//! were hand-review findings once; this module machine-checks them.
//!
//! Three lints over the [`crate::dataflow`] CFG summaries:
//!
//! * **journal-unsynced** — forward dataflow with state `{Clean, Dirty}`:
//!   a file write dirties, `sync_data`/`sync_all` cleans, and a call
//!   applies the callee's memoized *effect* (`Id` / `SetDirty` /
//!   `SetClean`, computed from the callee's own success paths). Any
//!   completion-observable exit (a non-`Err` return, or falling off the
//!   end) reached with `Dirty` state fires. Error exits (`return Err` and
//!   every `?`) are exempt: an error path is allowed to leave unsynced
//!   bytes behind because the caller never observes the operation as
//!   having happened.
//! * **journal-split-commit** — only in `journal(create)` fns: counts
//!   append *events* (writes, or calls into fns that append) per path; a
//!   second event on one path fires. Syncing does not reset the count —
//!   a created header must be one append, full stop.
//! * **journal-torn-tail** — a `journal(replay)` fn must transitively
//!   reach code that mentions a tail guard ([`crate::dataflow::TAIL_GUARDS`]:
//!   committed-prefix trimming via `rposition`/`rfind`, repair via
//!   `truncate`/`set_len`, or explicit `Truncated` classification).

use crate::callgraph::Program;
use crate::dataflow::{Site, EXIT};
use crate::findings::Finding;
use crate::pragma::JournalMode;
use std::collections::{HashMap, HashSet, VecDeque};

/// What calling a function does to the caller's unsynced-bytes state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Leaves the state as it was (either touches nothing, or syncs
    /// everything it writes — the `append_raw` shape).
    Id,
    /// May leave unsynced bytes behind on a success path.
    SetDirty,
    /// Ends every success path synced, including pre-existing dirt.
    SetClean,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Wet {
    Clean,
    Dirty,
}

impl Wet {
    fn join(self, other: Wet) -> Wet {
        self.max(other)
    }
}

/// An exit sample: (line, is-error-exit, state on arrival).
type ExitSample = (u32, bool, Wet);

/// Run all three journal lints over the program.
pub fn check(prog: &Program) -> Vec<Finding> {
    let mut eng = Engine {
        prog,
        effects: HashMap::new(),
        effects_busy: HashSet::new(),
        appends: HashMap::new(),
        appends_busy: HashSet::new(),
    };
    let mut findings = Vec::new();
    for (i, f) in prog.fns.iter().enumerate() {
        let Some(mode) = f.journal else { continue };
        eng.unsynced(i, &mut findings);
        if mode == JournalMode::Create {
            eng.split_commit(i, &mut findings);
        }
        if mode == JournalMode::Replay {
            eng.torn_tail(i, &mut findings);
        }
    }
    findings
}

struct Engine<'a> {
    prog: &'a Program,
    effects: HashMap<usize, Effect>,
    effects_busy: HashSet<usize>,
    appends: HashMap<usize, bool>,
    appends_busy: HashSet<usize>,
}

impl Engine<'_> {
    /// journal-unsynced: any completion exit reached Dirty.
    fn unsynced(&mut self, i: usize, out: &mut Vec<Finding>) {
        let info = &self.prog.fns[i];
        let name = info.s.name.clone();
        let file = info.file.clone();
        let samples = self.exits(i, Wet::Clean);
        let mut seen: HashSet<u32> = HashSet::new();
        for (line, is_err, st) in samples {
            if !is_err && st == Wet::Dirty && seen.insert(line) {
                out.push(Finding {
                    file: file.clone(),
                    line,
                    lint: "journal-unsynced",
                    message: format!(
                        "append path reaches a completion exit without `sync_data` \
                         in journal fn `{name}`"
                    ),
                    suggestion: "call `sync_data` before reporting success, or add \
                                 `// analyze: allow(journal-unsynced, reason = \"...\")`"
                        .to_string(),
                });
            }
        }
    }

    /// journal-split-commit: a second append event on one path of a
    /// `journal(create)` fn.
    fn split_commit(&mut self, i: usize, out: &mut Vec<Finding>) {
        let prog = self.prog;
        let info = &prog.fns[i];
        let name = info.s.name.clone();
        let file = info.file.clone();
        let nblocks = info.s.blocks.len();
        // State: appends seen so far on this path, saturating at 2.
        let mut inb: Vec<Option<u8>> = vec![None; nblocks];
        inb[0] = Some(0);
        let mut work: VecDeque<usize> = VecDeque::from([0usize]);
        let mut fired: HashSet<u32> = HashSet::new();
        while let Some(b) = work.pop_front() {
            let Some(mut st) = inb[b] else { continue };
            let (site_ids, succs) = {
                let blk = &prog.fns[i].s.blocks[b];
                (blk.sites.clone(), blk.succs.clone())
            };
            for sid in site_ids {
                let site = prog.fns[i].s.sites[sid as usize].clone();
                let (event, line) = match &site {
                    Site::Io { write: true, line } => (true, *line),
                    Site::Call(c) => {
                        let appends = prog.resolve(i, c).is_some_and(|j| self.fn_appends(j));
                        (appends, c.line)
                    }
                    _ => (false, 0),
                };
                if event {
                    if st >= 1 && fired.insert(line) {
                        out.push(Finding {
                            file: file.clone(),
                            line,
                            lint: "journal-split-commit",
                            message: format!(
                                "second append on a single commit path in \
                                 journal(create) fn `{name}` — the header must be \
                                 written as one append"
                            ),
                            suggestion: "build the full record in memory and append it once"
                                .to_string(),
                        });
                    }
                    st = (st + 1).min(2);
                }
            }
            for succ in succs {
                if succ == EXIT {
                    continue;
                }
                let s = succ as usize;
                let joined = inb[s].map_or(st, |old| old.max(st));
                if inb[s] != Some(joined) {
                    inb[s] = Some(joined);
                    work.push_back(s);
                }
            }
        }
    }

    /// journal-torn-tail: the replay fn's transitive closure must mention
    /// a tail guard.
    fn torn_tail(&mut self, i: usize, out: &mut Vec<Finding>) {
        let prog = self.prog;
        let mut seen: HashSet<usize> = HashSet::new();
        let mut queue: VecDeque<usize> = VecDeque::from([i]);
        seen.insert(i);
        while let Some(k) = queue.pop_front() {
            if !prog.fns[k].s.mentions.is_empty() {
                return; // guarded
            }
            for site in &prog.fns[k].s.sites {
                if let Site::Call(c) = site {
                    if let Some(j) = prog.resolve(k, c) {
                        if seen.insert(j) {
                            queue.push_back(j);
                        }
                    }
                }
            }
        }
        let info = &prog.fns[i];
        out.push(Finding {
            file: info.file.clone(),
            line: info.s.line,
            lint: "journal-torn-tail",
            message: format!(
                "journal(replay) fn `{}` has no torn-tail handling on any reachable \
                 path (expected committed-prefix trimming via `rposition`/`rfind`, \
                 repair via `truncate`/`set_len`, or a `Truncated` classification)",
                info.s.name
            ),
            suggestion: "trim the byte stream to the last complete record before parsing"
                .to_string(),
        });
    }

    /// Forward {Clean, Dirty} dataflow; returns every exit sample.
    fn exits(&mut self, i: usize, entry: Wet) -> Vec<ExitSample> {
        let prog = self.prog;
        let nblocks = prog.fns[i].s.blocks.len();
        if nblocks == 0 {
            return Vec::new();
        }
        let mut inb: Vec<Option<Wet>> = vec![None; nblocks];
        inb[0] = Some(entry);
        let mut work: VecDeque<usize> = VecDeque::from([0usize]);
        let mut samples: HashMap<(u32, bool), Wet> = HashMap::new();
        while let Some(b) = work.pop_front() {
            let Some(mut st) = inb[b] else { continue };
            let (site_ids, succs) = {
                let blk = &prog.fns[i].s.blocks[b];
                (blk.sites.clone(), blk.succs.clone())
            };
            for sid in site_ids {
                let site = prog.fns[i].s.sites[sid as usize].clone();
                match site {
                    Site::Io { write: true, .. } => st = Wet::Dirty,
                    Site::Io { write: false, .. } => st = Wet::Clean,
                    Site::Call(c) => {
                        if let Some(j) = prog.resolve(i, &c) {
                            match self.effect(j) {
                                Effect::Id => {}
                                Effect::SetDirty => st = Wet::Dirty,
                                Effect::SetClean => st = Wet::Clean,
                            }
                        }
                    }
                    Site::Exit { line, is_err, .. } => {
                        samples
                            .entry((line, is_err))
                            .and_modify(|old| *old = old.join(st))
                            .or_insert(st);
                    }
                    _ => {}
                }
            }
            for succ in succs {
                if succ == EXIT {
                    let line = prog.fns[i].s.end_line;
                    samples
                        .entry((line, false))
                        .and_modify(|old| *old = old.join(st))
                        .or_insert(st);
                    continue;
                }
                let s = succ as usize;
                let joined = inb[s].map_or(st, |old| old.join(st));
                if inb[s] != Some(joined) {
                    inb[s] = Some(joined);
                    work.push_back(s);
                }
            }
        }
        samples
            .into_iter()
            .map(|((line, is_err), st)| (line, is_err, st))
            .collect()
    }

    /// Memoized effect of calling fn `j`, judged from its success exits.
    fn effect(&mut self, j: usize) -> Effect {
        if let Some(&e) = self.effects.get(&j) {
            return e;
        }
        if !self.effects_busy.insert(j) {
            return Effect::Id; // recursion: optimistic, refined on memo fill
        }
        let success = |samples: &[ExitSample], dflt: Wet| -> Wet {
            samples
                .iter()
                .filter(|(_, is_err, _)| !is_err)
                .map(|&(_, _, st)| st)
                .fold(None, |acc: Option<Wet>, st| {
                    Some(acc.map_or(st, |a| a.join(st)))
                })
                .unwrap_or(dflt)
        };
        let from_clean = success(&self.exits(j, Wet::Clean), Wet::Clean);
        let from_dirty = success(&self.exits(j, Wet::Dirty), Wet::Dirty);
        let e = match (from_clean, from_dirty) {
            (Wet::Dirty, _) => Effect::SetDirty,
            (Wet::Clean, Wet::Dirty) => Effect::Id,
            (Wet::Clean, Wet::Clean) => Effect::SetClean,
        };
        self.effects_busy.remove(&j);
        self.effects.insert(j, e);
        e
    }

    /// Does fn `j` perform an append (directly or transitively) on any
    /// path? Used for split-commit event counting.
    fn fn_appends(&mut self, j: usize) -> bool {
        if let Some(&a) = self.appends.get(&j) {
            return a;
        }
        if !self.appends_busy.insert(j) {
            return false; // recursion guard
        }
        let prog = self.prog;
        let mut a = false;
        for site in &prog.fns[j].s.sites {
            match site {
                Site::Io { write: true, .. } => {
                    a = true;
                    break;
                }
                Site::Call(c) => {
                    if let Some(k) = prog.resolve(j, c) {
                        if self.fn_appends(k) {
                            a = true;
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
        self.appends_busy.remove(&j);
        self.appends.insert(j, a);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::FnInfo;
    use crate::cfg::find_fns;
    use crate::lexer::lex;
    use std::collections::HashSet as Set;

    fn program(src: &str, journal: &[(&str, JournalMode)]) -> Program {
        let lexed = lex(src);
        let fns = find_fns(&lexed.toks)
            .iter()
            .map(|d| {
                let s = crate::dataflow::summarize(&lexed.toks, d, &Set::new());
                FnInfo {
                    file: "test.rs".to_string(),
                    cf_public: None,
                    za_root: false,
                    journal: journal.iter().find(|(n, _)| *n == s.name).map(|&(_, m)| m),
                    s,
                }
            })
            .collect();
        Program::build(fns)
    }

    #[test]
    fn synced_append_is_clean() {
        let src = "fn append(&mut self, x: &[u8]) -> io::Result<()> {\n\
                       self.file.write_all(x)?;\n\
                       self.file.sync_data()?;\n\
                       Ok(())\n\
                   }\n";
        let prog = program(src, &[("append", JournalMode::Append)]);
        assert!(check(&prog).is_empty());
    }

    #[test]
    fn unsynced_completion_exit_fires() {
        let src = "fn append(&mut self, x: &[u8]) -> io::Result<()> {\n\
                       self.file.write_all(x)?;\n\
                       Ok(())\n\
                   }\n";
        let prog = program(src, &[("append", JournalMode::Append)]);
        let f = check(&prog);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "journal-unsynced");
    }

    #[test]
    fn error_exit_without_sync_is_exempt() {
        let src = "fn append(&mut self, x: &[u8]) -> io::Result<()> {\n\
                       self.file.write_all(x)?;\n\
                       if x.is_empty() { return Err(bad()); }\n\
                       self.file.sync_data()?;\n\
                       Ok(())\n\
                   }\n";
        let prog = program(src, &[("append", JournalMode::Append)]);
        assert!(check(&prog).is_empty());
    }

    #[test]
    fn dirty_branch_joins_dirty() {
        let src = "fn append(&mut self, x: &[u8], skip: bool) -> io::Result<()> {\n\
                       self.file.write_all(x)?;\n\
                       if !skip {\n\
                           self.file.sync_data()?;\n\
                       }\n\
                       Ok(())\n\
                   }\n";
        let prog = program(src, &[("append", JournalMode::Append)]);
        let f = check(&prog);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "journal-unsynced");
    }

    #[test]
    fn callee_effect_id_keeps_caller_clean() {
        let src = "impl W {\n\
                   fn append_raw(&mut self, x: &[u8]) -> io::Result<()> {\n\
                       self.file.write_all(x)?;\n\
                       self.file.sync_data()?;\n\
                       Ok(())\n\
                   }\n\
                   fn record(&mut self, x: &[u8]) -> io::Result<()> {\n\
                       self.append_raw(x)?;\n\
                       Ok(())\n\
                   }\n\
                   }\n";
        let prog = program(src, &[("record", JournalMode::Append)]);
        assert!(check(&prog).is_empty());
    }

    #[test]
    fn callee_that_forgets_sync_dirties_caller() {
        let src = "impl W {\n\
                   fn raw_write(&mut self, x: &[u8]) -> io::Result<()> {\n\
                       self.file.write_all(x)?;\n\
                       Ok(())\n\
                   }\n\
                   fn record(&mut self, x: &[u8]) -> io::Result<()> {\n\
                       self.raw_write(x)?;\n\
                       Ok(())\n\
                   }\n\
                   }\n";
        let prog = program(src, &[("record", JournalMode::Append)]);
        let f = check(&prog);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "journal-unsynced");
    }

    #[test]
    fn split_commit_fires_on_two_appends() {
        let src = "fn create(&mut self) -> io::Result<()> {\n\
                       self.file.write_all(b\"MAGIC\\n\")?;\n\
                       self.file.write_all(b\"header\\n\")?;\n\
                       self.file.sync_data()?;\n\
                       Ok(())\n\
                   }\n";
        let prog = program(src, &[("create", JournalMode::Create)]);
        let f = check(&prog);
        assert!(f.iter().any(|f| f.lint == "journal-split-commit"), "{f:?}");
    }

    #[test]
    fn single_append_create_is_clean() {
        let src = "fn create(&mut self, header: &str) -> io::Result<()> {\n\
                       self.file.write_all(header.as_bytes())?;\n\
                       self.file.sync_data()?;\n\
                       Ok(())\n\
                   }\n";
        let prog = program(src, &[("create", JournalMode::Create)]);
        assert!(check(&prog).is_empty());
    }

    #[test]
    fn torn_tail_guard_detected_transitively() {
        let src = "fn replay(bytes: &[u8]) -> State {\n\
                       parse(trim(bytes))\n\
                   }\n\
                   fn trim(bytes: &[u8]) -> &[u8] {\n\
                       let end = bytes.iter().rposition(|&b| b == b'\\n');\n\
                       bytes\n\
                   }\n\
                   fn parse(bytes: &[u8]) -> State { State }\n";
        let prog = program(src, &[("replay", JournalMode::Replay)]);
        assert!(check(&prog).is_empty());
    }

    #[test]
    fn missing_torn_tail_handling_fires() {
        let src = "fn replay(bytes: &[u8]) -> State {\n\
                       parse(bytes)\n\
                   }\n\
                   fn parse(bytes: &[u8]) -> State { State }\n";
        let prog = program(src, &[("replay", JournalMode::Replay)]);
        let f = check(&prog);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "journal-torn-tail");
    }
}

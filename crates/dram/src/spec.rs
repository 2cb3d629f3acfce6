//! Data-driven device specs: the TOML schema behind every [`DeviceConfig`].
//!
//! A DRAM standard is described by a checked-in file under `specs/` (see
//! `docs/SPEC_FORMAT.md` for the full schema reference) holding the device
//! identity, geometry, clocking, access latencies, refresh parameters,
//! power-state thresholds and — the heart of the format — a **timing
//! constraint table**: one line per JEDEC-style rule in a small
//! `"NAME: prev -> next @scope CYCLES"` DSL. The scalar
//! [`DeviceTimings`] fields the hot channel path uses are *derived* from
//! that table, and the verify oracle's `ProtocolChecker` generates its rule
//! set from the very same table, so a new standard is automatically both
//! simulated and checked.
//!
//! The six shipped specs are embedded at compile time (the preset
//! constructors on [`DeviceConfig`] load them); [`DeviceSpec::from_file`]
//! loads user-supplied files at runtime for `cwfmem run --spec <file>`.
//!
//! The parser is a deliberate TOML *subset* — single-level `[section]`
//! headers, `key = value` pairs with integer/string/boolean values, and
//! (possibly multi-line) arrays of strings — implemented by hand because
//! the workspace takes no external dependencies.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use crate::config::{
    AddressingStyle, CmdClass, ConstraintScope, DeviceConfig, DeviceGeometry, DeviceKind,
    DeviceTimings, PagePolicy, RefPoint, SpecConstraint,
};

/// Upper bound on banks per device, matching the per-bank stats arrays
/// (`stats::MAX_BANKS`) and the rank's open-bank bitmask.
const MAX_SPEC_BANKS: u32 = 32;

/// Every embedded spec, id → TOML source. The files under `specs/` are the
/// single source of truth; the presets in [`DeviceConfig`] load from here.
const EMBEDDED: [(&str, &str); 7] = [
    ("ddr3_1600", include_str!("../../../specs/ddr3_1600.toml")),
    ("lpddr2_800", include_str!("../../../specs/lpddr2_800.toml")),
    ("rldram3", include_str!("../../../specs/rldram3.toml")),
    ("ddr4_2400", include_str!("../../../specs/ddr4_2400.toml")),
    ("ddr5_4800", include_str!("../../../specs/ddr5_4800.toml")),
    ("lpddr4_3200", include_str!("../../../specs/lpddr4_3200.toml")),
    ("nvm_slow", include_str!("../../../specs/nvm_slow.toml")),
];

/// A spec-file parse or validation error, with the 1-based line it
/// occurred on (0 when the error is not tied to a single line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based source line, or 0 for file-level errors.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl SpecError {
    fn new(line: usize, msg: impl Into<String>) -> Self {
        SpecError { line, msg: msg.into() }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "spec error: {}", self.msg)
        } else {
            write!(f, "spec error at line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for SpecError {}

/// A parsed, validated device spec: an id plus the [`DeviceConfig`] it
/// describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSpec {
    /// Spec id (`[device] id`), e.g. `"ddr5_4800"`; embedded specs are
    /// stored as `specs/<id>.toml`.
    pub id: String,
    /// The fully derived device configuration.
    pub config: DeviceConfig,
    /// `[timing] exempt` annotations: deliberate coverage holes or waived
    /// implied inequalities, each with its justification (see
    /// [`SpecExempt`]). Purely a lint artifact — simulation ignores them.
    pub exempts: Vec<SpecExempt>,
}

/// One `[timing] exempt` annotation.
///
/// `cwfmem spec-lint` proves a coverage matrix over every command pair the
/// constraint DSL admits; a cell left deliberately unconstrained must carry
/// an exempt annotation naming the cell and the reason, and the two implied
/// timing inequalities can likewise be waived when a spec pins
/// datasheet-rounded values. The linter flags exempts that no longer match
/// a real gap, so stale annotations cannot accumulate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecExempt {
    /// `"prev -> next @scope: justification"` — the command pair is
    /// deliberately unconstrained at that scope.
    Pair {
        /// Earlier command class.
        prev: CmdClass,
        /// Later command class.
        next: CmdClass,
        /// Scope of the uncovered cell.
        scope: ConstraintScope,
        /// Why the gap is intentional (never empty).
        justification: String,
    },
    /// `"tRC >= tRAS + tRP: justification"` — the named implied inequality
    /// is deliberately violated (whitespace-insensitive; the name is stored
    /// compacted, e.g. `"tRC>=tRAS+tRP"`).
    Inequality {
        /// Compacted inequality name (one of [`IMPLIED_INEQUALITIES`]).
        name: String,
        /// Why the violation is intentional (never empty).
        justification: String,
    },
}

/// The implied timing inequalities `spec-lint` checks, in compacted form.
///
/// A row activation must stay open long enough to cover the column access
/// it admits (`tRAS >= tRCD + tRTP`), and an ACT→ACT cycle must cover the
/// open time plus the precharge (`tRC >= tRAS + tRP`). Datasheets round
/// these independently, so a spec pinning published values may need an
/// [`SpecExempt::Inequality`] waiver.
pub const IMPLIED_INEQUALITIES: [&str; 2] = ["tRC>=tRAS+tRP", "tRAS>=tRCD+tRTP"];

/// A per-bank protocol state of the [`BankStateMachine`].
///
/// Named `ProtoState` (not `BankState`) to stay clear of the simulation's
/// [`crate::bank::BankState`], which tracks the open row id as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProtoState {
    /// No open row. The initial state; single-command devices never leave
    /// it (their activate is implicit in the column command).
    Closed,
    /// A row is open (ras-cas devices only).
    Open,
}

impl fmt::Display for ProtoState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoState::Closed => f.write_str("closed"),
            ProtoState::Open => f.write_str("open"),
        }
    }
}

/// One admitted transition of the per-bank state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtoTransition {
    /// State the bank is in before the command.
    pub from: ProtoState,
    /// The command class that drives the transition.
    pub cmd: CmdClass,
    /// State the bank lands in afterwards.
    pub to: ProtoState,
}

/// The per-bank command state machine a device admits, derived from its
/// addressing style, page policy and refresh mode.
///
/// This is the model `cwfmem spec-lint` walks for its reachability and
/// coverage passes: which commands the device can ever issue, which states
/// they connect, and therefore which constraint cells are meaningful.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankStateMachine {
    /// The power-on state (always [`ProtoState::Closed`]).
    pub initial: ProtoState,
    /// Every state, initial first.
    pub states: Vec<ProtoState>,
    /// Every admitted `(from, cmd, to)` transition.
    pub transitions: Vec<ProtoTransition>,
}

impl BankStateMachine {
    /// Derive the machine for a device configuration.
    #[must_use]
    pub fn of(config: &DeviceConfig) -> BankStateMachine {
        use CmdClass::{Act, Pre, Rd, RefSb, Wr};
        use ProtoState::{Closed, Open};
        let t = |from, cmd, to| ProtoTransition { from, cmd, to };
        let mut transitions = match config.addressing {
            AddressingStyle::RasCas => {
                // Under a closed-page policy every column access carries an
                // auto-precharge, so rd/wr return the bank to `Closed`.
                let after_col = match config.page_policy {
                    PagePolicy::Open => Open,
                    PagePolicy::Closed => Closed,
                };
                vec![
                    t(Closed, Act, Open),
                    t(Open, Rd, after_col),
                    t(Open, Wr, after_col),
                    t(Open, Pre, Closed),
                ]
            }
            AddressingStyle::SingleCommand => {
                // The activate is implicit and the bank auto-precharges:
                // every command is a `Closed` self-loop.
                vec![t(Closed, Rd, Closed), t(Closed, Wr, Closed)]
            }
        };
        if config.refresh_per_bank {
            transitions.push(t(Closed, RefSb, Closed));
        }
        let mut states = vec![ProtoState::Closed];
        if config.addressing == AddressingStyle::RasCas {
            states.push(ProtoState::Open);
        }
        BankStateMachine { initial: ProtoState::Closed, states, transitions }
    }

    /// Every command class the device can issue, sorted and deduplicated.
    #[must_use]
    pub fn commands(&self) -> Vec<CmdClass> {
        let mut cmds: Vec<CmdClass> = self.transitions.iter().map(|t| t.cmd).collect();
        cmds.sort_unstable();
        cmds.dedup();
        cmds
    }

    /// The command classes that *enter* `state` (from a different state).
    #[must_use]
    pub fn entering(&self, state: ProtoState) -> Vec<CmdClass> {
        let mut cmds: Vec<CmdClass> = self
            .transitions
            .iter()
            .filter(|t| t.to == state && t.from != state)
            .map(|t| t.cmd)
            .collect();
        cmds.sort_unstable();
        cmds.dedup();
        cmds
    }

    /// States reachable from the initial state, sorted.
    #[must_use]
    pub fn reachable(&self) -> Vec<ProtoState> {
        let mut seen = vec![self.initial];
        loop {
            let next: Vec<ProtoState> = self
                .transitions
                .iter()
                .filter(|t| seen.contains(&t.from) && !seen.contains(&t.to))
                .map(|t| t.to)
                .collect();
            if next.is_empty() {
                break;
            }
            seen.extend(next);
            seen.dedup();
        }
        seen.sort_unstable();
        seen.dedup();
        seen
    }
}

impl DeviceSpec {
    /// Parse and validate a spec from TOML text.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending line for syntax errors,
    /// unknown keys/commands, zero or negative timings, and constraint
    /// shapes the channel model cannot enforce.
    ///
    /// # Examples
    ///
    /// A minimal single-command device spec round-trips:
    ///
    /// ```
    /// use dram_timing::spec::DeviceSpec;
    ///
    /// let spec = DeviceSpec::load_str(r#"
    ///     [device]
    ///     id = "tiny_rl"
    ///     kind = "rldram3"
    ///     name = "Example RLDRAM3"
    ///     addressing = "single-command"
    ///     page-policy = "closed"
    ///     [clock]
    ///     t-ck-ps = 1250
    ///     cpu-cycles-per-mem-cycle = 4
    ///     [geometry]
    ///     banks = 16
    ///     rows = 8192
    ///     lines-per-row = 1
    ///     width-bits = 9
    ///     capacity-mbit = 576
    ///     [access]
    ///     t-burst = 4
    ///     t-rl = 8
    ///     t-wl = 9
    ///     t-rtrs = 2
    ///     [refresh]
    ///     t-refi = 3125
    ///     t-rfc = 10
    ///     per-bank = true
    ///     [power-states]
    ///     t-xp = 0
    ///     t-xsr = 0
    ///     powerdown-idle = 0
    ///     self-refresh-idle = 0
    ///     [timing]
    ///     constraints = ["tRC: rd -> rd @bank 10", "tRC: wr -> rd @bank 10"]
    /// "#).expect("valid spec");
    ///
    /// assert_eq!(spec.id, "tiny_rl");
    /// assert_eq!(spec.config.timings.t_rc, 10);
    /// assert_eq!(spec.config.constraints.len(), 2);
    /// ```
    pub fn load_str(text: &str) -> Result<DeviceSpec, SpecError> {
        let mut raw = RawSpec::parse(text)?;
        let spec = build(&mut raw)?;
        raw.finish()?;
        Ok(spec)
    }

    /// Load a spec from a TOML file on disk.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the file cannot be read or fails to
    /// parse/validate (the message is prefixed with the path).
    pub fn from_file(path: impl AsRef<Path>) -> Result<DeviceSpec, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::new(0, format!("{}: {e}", path.display())))?;
        Self::load_str(&text)
            .map_err(|e| SpecError { line: e.line, msg: format!("{}: {}", path.display(), e.msg) })
    }

    /// Look up one of the compile-time-embedded specs by id.
    ///
    /// # Examples
    ///
    /// ```
    /// use dram_timing::spec::DeviceSpec;
    ///
    /// let ddr5 = DeviceSpec::embedded("ddr5_4800").expect("shipped spec");
    /// assert_eq!(ddr5.config.geometry.banks, 32);
    /// assert_eq!(ddr5.config.geometry.bank_groups, 8);
    /// assert!(DeviceSpec::embedded("sdram_pc133").is_none());
    /// ```
    #[must_use]
    pub fn embedded(id: &str) -> Option<DeviceSpec> {
        let (_, text) = EMBEDDED.iter().find(|(e, _)| *e == id)?;
        Some(Self::load_str(text).unwrap_or_else(|e| panic!("embedded spec {id} invalid: {e}")))
    }

    /// Ids of every embedded spec, in a stable order.
    #[must_use]
    pub fn embedded_ids() -> [&'static str; 7] {
        let mut ids = [""; 7];
        for (i, (id, _)) in EMBEDDED.iter().enumerate() {
            ids[i] = id;
        }
        ids
    }

    /// Consume the spec, yielding its [`DeviceConfig`].
    #[must_use]
    pub fn into_config(self) -> DeviceConfig {
        self.config
    }

    /// The per-bank state machine this device admits (see
    /// [`BankStateMachine`]).
    #[must_use]
    pub fn state_machine(&self) -> BankStateMachine {
        BankStateMachine::of(&self.config)
    }
}

/// One parsed TOML value.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    Int(i64),
    Str(String),
    Bool(bool),
    StrList(Vec<String>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "integer",
            Value::Str(_) => "string",
            Value::Bool(_) => "boolean",
            Value::StrList(_) => "string array",
        }
    }
}

/// Flat `section.key -> (value, line)` view of a spec file, consumed key
/// by key so leftovers can be reported as unknown.
struct RawSpec {
    entries: BTreeMap<String, (Value, usize)>,
}

impl RawSpec {
    fn parse(text: &str) -> Result<RawSpec, SpecError> {
        let mut entries = BTreeMap::new();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((i, raw_line)) = lines.next() {
            let lineno = i + 1;
            let line = strip_comment(raw_line).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(SpecError::new(
                        lineno,
                        format!("malformed section header {line:?}"),
                    ));
                };
                let name = name.trim();
                if name.is_empty() || name.contains(['[', ']', '.']) {
                    return Err(SpecError::new(lineno, format!("malformed section name {name:?}")));
                }
                section = name.to_string();
                continue;
            }
            let Some((key, val_text)) = line.split_once('=') else {
                return Err(SpecError::new(
                    lineno,
                    format!("expected `key = value`, got {line:?}"),
                ));
            };
            let key = key.trim();
            if key.is_empty() || section.is_empty() {
                return Err(SpecError::new(lineno, "key outside any [section]"));
            }
            let mut val_text = val_text.trim().to_string();
            // Multi-line string arrays: keep consuming lines until the
            // bracket closes outside a quoted string.
            if val_text.starts_with('[') {
                while !array_closed(&val_text) {
                    let Some((_, cont)) = lines.next() else {
                        return Err(SpecError::new(lineno, "unterminated array"));
                    };
                    val_text.push('\n');
                    val_text.push_str(strip_comment(cont).trim());
                }
            }
            let value = parse_value(&val_text, lineno)?;
            let full_key = format!("{section}.{key}");
            if entries.insert(full_key.clone(), (value, lineno)).is_some() {
                return Err(SpecError::new(lineno, format!("duplicate key {full_key}")));
            }
        }
        Ok(RawSpec { entries })
    }

    fn take(&mut self, key: &str) -> Result<(Value, usize), SpecError> {
        self.entries
            .remove(key)
            .ok_or_else(|| SpecError::new(0, format!("missing required key {key}")))
    }

    fn take_str(&mut self, key: &str) -> Result<(String, usize), SpecError> {
        match self.take(key)? {
            (Value::Str(s), line) => Ok((s, line)),
            (v, line) => {
                Err(SpecError::new(line, format!("{key} must be a string, got {}", v.type_name())))
            }
        }
    }

    /// A non-negative integer that fits in `u32`.
    fn take_u32(&mut self, key: &str) -> Result<(u32, usize), SpecError> {
        match self.take(key)? {
            (Value::Int(i), line) => u32::try_from(i).map(|v| (v, line)).map_err(|_| {
                SpecError::new(line, format!("{key} must be in 0..=u32::MAX, got {i}"))
            }),
            (v, line) => Err(SpecError::new(
                line,
                format!("{key} must be an integer, got {}", v.type_name()),
            )),
        }
    }

    /// A strictly positive integer that fits in `u32`.
    fn take_positive(&mut self, key: &str) -> Result<(u32, usize), SpecError> {
        let (v, line) = self.take_u32(key)?;
        if v == 0 {
            return Err(SpecError::new(line, format!("{key} must be positive")));
        }
        Ok((v, line))
    }

    fn take_u32_or(&mut self, key: &str, default: u32) -> Result<u32, SpecError> {
        if !self.entries.contains_key(key) {
            return Ok(default);
        }
        Ok(self.take_u32(key)?.0)
    }

    fn take_bool(&mut self, key: &str) -> Result<bool, SpecError> {
        match self.take(key)? {
            (Value::Bool(b), _) => Ok(b),
            (v, line) => {
                Err(SpecError::new(line, format!("{key} must be a boolean, got {}", v.type_name())))
            }
        }
    }

    fn take_str_list(&mut self, key: &str) -> Result<(Vec<String>, usize), SpecError> {
        match self.take(key)? {
            (Value::StrList(l), line) => Ok((l, line)),
            (v, line) => Err(SpecError::new(
                line,
                format!("{key} must be a string array, got {}", v.type_name()),
            )),
        }
    }

    /// Error on any key nothing consumed — catches typos in spec files.
    fn finish(self) -> Result<(), SpecError> {
        if let Some((key, (_, line))) = self.entries.into_iter().next() {
            return Err(SpecError::new(line, format!("unknown key {key}")));
        }
        Ok(())
    }
}

/// Remove a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// True when a (possibly partial) array literal has its closing `]`
/// outside any quoted string.
fn array_closed(text: &str) -> bool {
    let mut in_str = false;
    for c in text.chars() {
        match c {
            '"' => in_str = !in_str,
            ']' if !in_str => return true,
            _ => {}
        }
    }
    false
}

fn parse_value(text: &str, line: usize) -> Result<Value, SpecError> {
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(body) = text.strip_prefix('"') {
        let Some(s) = body.strip_suffix('"') else {
            return Err(SpecError::new(line, format!("unterminated string {text:?}")));
        };
        if s.contains('"') {
            return Err(SpecError::new(line, format!("stray quote inside string {text:?}")));
        }
        return Ok(Value::Str(s.to_string()));
    }
    if let Some(body) = text.strip_prefix('[') {
        let Some(items_text) = body.strip_suffix(']') else {
            return Err(SpecError::new(line, "unterminated array"));
        };
        let mut items = Vec::new();
        for item in split_array_items(items_text) {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            match parse_value(item, line)? {
                Value::Str(s) => items.push(s),
                v => {
                    return Err(SpecError::new(
                        line,
                        format!("arrays may only hold strings, got {}", v.type_name()),
                    ))
                }
            }
        }
        return Ok(Value::StrList(items));
    }
    if let Ok(i) = text.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    Err(SpecError::new(line, format!("unrecognised value {text:?}")))
}

/// Split array body text on commas/newlines outside quoted strings.
fn split_array_items(text: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    for c in text.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                current.push(c);
            }
            ',' | '\n' if !in_str => {
                items.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    items.push(current);
    items
}

/// Parse one `"NAME: prev -> next @scope CYCLES [window=N] [from=data-end]"`
/// constraint line.
fn parse_constraint(text: &str, line: usize) -> Result<SpecConstraint, SpecError> {
    let err = |msg: String| SpecError::new(line, format!("constraint {text:?}: {msg}"));
    let Some((name, rest)) = text.split_once(':') else {
        return Err(err("missing `NAME:` prefix".into()));
    };
    let name = name.trim().to_string();
    if name.is_empty() {
        return Err(err("empty rule name".into()));
    }
    let tokens: Vec<&str> = rest.split_whitespace().collect();
    if tokens.len() < 5 {
        return Err(err("expected `prev -> next @scope CYCLES`".into()));
    }
    let cmd = |tok: &str| -> Result<CmdClass, SpecError> {
        match tok {
            "act" => Ok(CmdClass::Act),
            "rd" => Ok(CmdClass::Rd),
            "wr" => Ok(CmdClass::Wr),
            "pre" => Ok(CmdClass::Pre),
            "refsb" => Ok(CmdClass::RefSb),
            other => Err(err(format!("unknown command {other:?} (act/rd/wr/pre/refsb)"))),
        }
    };
    let prev = cmd(tokens[0])?;
    if tokens[1] != "->" {
        return Err(err(format!("expected `->`, got {:?}", tokens[1])));
    }
    let next = cmd(tokens[2])?;
    let scope = match tokens[3] {
        "@bank" => ConstraintScope::Bank,
        "@bank-group" => ConstraintScope::BankGroup,
        "@rank" => ConstraintScope::Rank,
        other => return Err(err(format!("unknown scope {other:?} (@bank/@bank-group/@rank)"))),
    };
    let cycles: u32 = tokens[4]
        .parse()
        .map_err(|_| err(format!("cycle count {:?} is not a non-negative integer", tokens[4])))?;
    if cycles == 0 {
        return Err(err("cycle count must be positive".into()));
    }
    let mut window = 1u32;
    let mut from = RefPoint::Issue;
    for opt in &tokens[5..] {
        match opt.split_once('=') {
            Some(("window", v)) => {
                window = v.parse().map_err(|_| err(format!("bad window {v:?}")))?;
                if window != 4 {
                    return Err(err("only window=4 (tFAW-style) is supported".into()));
                }
            }
            Some(("from", "data-end")) => from = RefPoint::DataEnd,
            Some(("from", v)) => return Err(err(format!("unknown reference point {v:?}"))),
            _ => return Err(err(format!("unknown option {opt:?}"))),
        }
    }
    Ok(SpecConstraint { name, prev, next, scope, cycles, window, from })
}

/// Parse one `[timing] exempt` line: `"prev -> next @scope: why"` for a
/// deliberate coverage hole, or `"tRC >= tRAS + tRP: why"` (any spacing)
/// for a waived implied inequality.
fn parse_exempt(text: &str, line: usize, grouped: bool) -> Result<SpecExempt, SpecError> {
    let err = |msg: String| SpecError::new(line, format!("exempt {text:?}: {msg}"));
    let Some((subject, justification)) = text.split_once(':') else {
        return Err(err("missing `: justification` suffix".into()));
    };
    let justification = justification.trim().to_string();
    if justification.is_empty() {
        return Err(err("empty justification".into()));
    }
    let compact: String = subject.chars().filter(|c| !c.is_whitespace()).collect();
    if IMPLIED_INEQUALITIES.contains(&compact.as_str()) {
        return Ok(SpecExempt::Inequality { name: compact, justification });
    }
    let tokens: Vec<&str> = subject.split_whitespace().collect();
    if tokens.len() != 4 || tokens[1] != "->" {
        return Err(err(format!(
            "expected `prev -> next @scope` or one of {IMPLIED_INEQUALITIES:?}"
        )));
    }
    let cmd = |tok: &str| -> Result<CmdClass, SpecError> {
        match tok {
            "act" => Ok(CmdClass::Act),
            "rd" => Ok(CmdClass::Rd),
            "wr" => Ok(CmdClass::Wr),
            "pre" => Ok(CmdClass::Pre),
            "refsb" => Ok(CmdClass::RefSb),
            other => Err(err(format!("unknown command {other:?} (act/rd/wr/pre/refsb)"))),
        }
    };
    let prev = cmd(tokens[0])?;
    let next = cmd(tokens[2])?;
    let scope = match tokens[3] {
        "@bank" => ConstraintScope::Bank,
        "@bank-group" => ConstraintScope::BankGroup,
        "@rank" => ConstraintScope::Rank,
        other => return Err(err(format!("unknown scope {other:?} (@bank/@bank-group/@rank)"))),
    };
    if scope == ConstraintScope::BankGroup && !grouped {
        return Err(err("bank-group scope on a device without bank groups".into()));
    }
    Ok(SpecExempt::Pair { prev, next, scope, justification })
}

/// The closed set of constraint shapes the channel model actually
/// enforces. Anything else would make the generated `ProtocolChecker`
/// stricter than the channel and flag violations on clean runs, so it is
/// rejected at load time.
fn validate_shape(
    c: &SpecConstraint,
    addressing: AddressingStyle,
    grouped: bool,
    line: usize,
) -> Result<(), SpecError> {
    use CmdClass::{Act, Pre, Rd, RefSb, Wr};
    use ConstraintScope::{Bank, BankGroup, Rank};
    let err = |msg: &str| {
        SpecError::new(line, format!("constraint {} ({:?} -> {:?}): {msg}", c.name, c.prev, c.next))
    };
    if c.scope == BankGroup && !grouped {
        return Err(err("bank-group scope on a device without bank groups"));
    }
    if c.window == 4 && !(c.prev == Act && c.next == Act && c.scope == Rank) {
        return Err(err("window=4 is only supported for act -> act @rank (tFAW)"));
    }
    if c.from == RefPoint::DataEnd && c.prev != Wr {
        return Err(err("from=data-end is only defined for a wr predecessor"));
    }
    let col = |cls: CmdClass| cls == Rd || cls == Wr;
    let ok = match addressing {
        AddressingStyle::SingleCommand => {
            // Single-command devices have no ACT/PRE; every rule is a
            // same-bank turnaround against the implicit activate.
            col(c.prev)
                && (col(c.next) || c.next == RefSb)
                && c.scope == Bank
                && c.from == RefPoint::Issue
        }
        AddressingStyle::RasCas => match (c.prev, c.next, c.scope, c.from) {
            (Act, Act, Bank, RefPoint::Issue) // tRC
            | (Act, Rd | Wr, Bank, RefPoint::Issue) // tRCD
            | (Pre, Act, Bank, RefPoint::Issue) // tRP
            | (Act, Pre, Bank, RefPoint::Issue) // tRAS
            | (Rd, Pre, Bank, RefPoint::Issue) // tRTP
            | (Wr, Pre, Bank, RefPoint::DataEnd) // tWR
            | (Wr, Rd, Rank, RefPoint::DataEnd) // tWTR
            | (Act, Act, Rank, RefPoint::Issue) // tRRD / tFAW
            | (Act, Act, BankGroup, RefPoint::Issue) // tRRD_L
            | (Pre, RefSb, Bank, RefPoint::Issue) => true, // tRP before same-bank refresh
            (p, n, Bank | Rank | BankGroup, RefPoint::Issue) if col(p) && col(n) => true, // tCCD*
            _ => false,
        },
    };
    if ok {
        Ok(())
    } else {
        Err(err("this shape is not enforced by the channel model"))
    }
}

/// Max cycles over constraints matching a predicate (0 if none match).
fn derive(cs: &[SpecConstraint], pred: impl Fn(&SpecConstraint) -> bool) -> u32 {
    cs.iter().filter(|c| pred(c)).map(|c| c.cycles).max().unwrap_or(0)
}

fn build(raw: &mut RawSpec) -> Result<DeviceSpec, SpecError> {
    use CmdClass::{Act, Pre, Rd, Wr};
    use ConstraintScope::{Bank, BankGroup, Rank};

    let (id, id_line) = raw.take_str("device.id")?;
    if id.is_empty()
        || !id.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    {
        return Err(SpecError::new(id_line, format!("id {id:?} must match [a-z0-9_]+")));
    }
    let (kind_str, kind_line) = raw.take_str("device.kind")?;
    let Some(kind) = DeviceKind::parse_token(&kind_str) else {
        return Err(SpecError::new(kind_line, format!("unknown device kind {kind_str:?}")));
    };
    let (name, _) = raw.take_str("device.name")?;
    let (addr_str, addr_line) = raw.take_str("device.addressing")?;
    let addressing = match addr_str.as_str() {
        "ras-cas" => AddressingStyle::RasCas,
        "single-command" => AddressingStyle::SingleCommand,
        other => return Err(SpecError::new(addr_line, format!("unknown addressing {other:?}"))),
    };
    let (page_str, page_line) = raw.take_str("device.page-policy")?;
    let page_policy = match page_str.as_str() {
        "open" => PagePolicy::Open,
        "closed" => PagePolicy::Closed,
        other => return Err(SpecError::new(page_line, format!("unknown page policy {other:?}"))),
    };

    let (t_ck_ps, _) = raw.take_positive("clock.t-ck-ps")?;
    let (ratio, _) = raw.take_positive("clock.cpu-cycles-per-mem-cycle")?;

    let (banks, banks_line) = raw.take_positive("geometry.banks")?;
    if banks > MAX_SPEC_BANKS {
        return Err(SpecError::new(
            banks_line,
            format!("banks = {banks} exceeds the supported maximum of {MAX_SPEC_BANKS}"),
        ));
    }
    let bank_groups = raw.take_u32_or("geometry.bank-groups", 1)?;
    if bank_groups == 0 || banks % bank_groups.max(1) != 0 {
        return Err(SpecError::new(
            banks_line,
            format!("bank-groups = {bank_groups} must be positive and divide banks = {banks}"),
        ));
    }
    let grouped = bank_groups > 1;
    if grouped && addressing == AddressingStyle::SingleCommand {
        return Err(SpecError::new(banks_line, "single-command devices cannot have bank groups"));
    }
    let (rows, _) = raw.take_positive("geometry.rows")?;
    let (lines_per_row, _) = raw.take_positive("geometry.lines-per-row")?;
    let (width_bits, _) = raw.take_positive("geometry.width-bits")?;
    let (capacity_mbit, _) = raw.take_positive("geometry.capacity-mbit")?;

    let (t_burst, _) = raw.take_positive("access.t-burst")?;
    let (t_rl, _) = raw.take_positive("access.t-rl")?;
    let (t_wl, _) = raw.take_u32("access.t-wl")?;
    let (t_rtrs, _) = raw.take_u32("access.t-rtrs")?;
    let t_ccd_override = raw.take_u32_or("access.t-ccd", 0)?;

    let (t_refi, _) = raw.take_u32("refresh.t-refi")?;
    let (t_rfc, _) = raw.take_u32("refresh.t-rfc")?;
    let refresh_per_bank = raw.take_bool("refresh.per-bank")?;
    if addressing == AddressingStyle::SingleCommand && !refresh_per_bank {
        return Err(SpecError::new(0, "single-command devices require per-bank refresh"));
    }

    let (t_xp, _) = raw.take_u32("power-states.t-xp")?;
    let (t_xsr, _) = raw.take_u32("power-states.t-xsr")?;
    let powerdown_idle = raw.take_u32("power-states.powerdown-idle")?.0;
    let self_refresh_idle = raw.take_u32("power-states.self-refresh-idle")?.0;

    let (lines, list_line) = raw.take_str_list("timing.constraints")?;
    if lines.is_empty() {
        return Err(SpecError::new(list_line, "timing.constraints must not be empty"));
    }
    let mut constraints = Vec::with_capacity(lines.len());
    for text in &lines {
        let c = parse_constraint(text, list_line)?;
        validate_shape(&c, addressing, grouped, list_line)?;
        let key = (c.prev, c.next, c.scope, c.from, c.window);
        if constraints
            .iter()
            .any(|e: &SpecConstraint| (e.prev, e.next, e.scope, e.from, e.window) == key)
        {
            return Err(SpecError::new(
                list_line,
                format!("duplicate constraint for {:?} -> {:?} {:?}", c.prev, c.next, c.scope),
            ));
        }
        constraints.push(c);
    }

    let exempts = if raw.entries.contains_key("timing.exempt") {
        let (lines, exempt_line) = raw.take_str_list("timing.exempt")?;
        let mut exempts = Vec::with_capacity(lines.len());
        for text in &lines {
            let e = parse_exempt(text, exempt_line, grouped)?;
            let same_subject = |other: &SpecExempt| match (&e, other) {
                (
                    SpecExempt::Pair { prev, next, scope, .. },
                    SpecExempt::Pair { prev: p2, next: n2, scope: s2, .. },
                ) => (prev, next, scope) == (p2, n2, s2),
                (SpecExempt::Inequality { name, .. }, SpecExempt::Inequality { name: n2, .. }) => {
                    name == n2
                }
                _ => false,
            };
            if exempts.iter().any(same_subject) {
                return Err(SpecError::new(exempt_line, format!("duplicate exempt {text:?}")));
            }
            exempts.push(e);
        }
        exempts
    } else {
        Vec::new()
    };

    let col = |cls: CmdClass| cls == Rd || cls == Wr;
    // Derive the scalar timings the channel hot path uses from the table.
    let t_rc = match addressing {
        AddressingStyle::RasCas => {
            derive(&constraints, |c| c.prev == Act && c.next == Act && c.scope == Bank)
        }
        AddressingStyle::SingleCommand => derive(&constraints, |c| col(c.prev) && c.scope == Bank),
    };
    let t_rcd = derive(&constraints, |c| c.prev == Act && col(c.next) && c.scope == Bank);
    let t_rp = derive(&constraints, |c| c.prev == Pre && c.next == Act);
    let t_ras = derive(&constraints, |c| c.prev == Act && c.next == Pre);
    let t_rtp = derive(&constraints, |c| c.prev == Rd && c.next == Pre);
    let t_wr =
        derive(&constraints, |c| c.prev == Wr && c.next == Pre && c.from == RefPoint::DataEnd);
    let t_wtr = derive(&constraints, |c| {
        c.prev == Wr && c.next == Rd && c.scope == Rank && c.from == RefPoint::DataEnd
    });
    let t_rrd = derive(&constraints, |c| {
        c.prev == Act && c.next == Act && c.scope == Rank && c.window == 1
    });
    let t_faw = derive(&constraints, |c| c.scope == Rank && c.window == 4);
    // On grouped devices column spacing splits into short (rank-wide) and
    // long (same-group); ungrouped devices express tCCD per bank.
    let col_scope = if grouped { Rank } else { Bank };
    // Single-command col → col rules are full tRC bank turnarounds, not
    // column spacing — leave those to `t_rc` and take the explicit
    // `access.t-ccd` override instead.
    let t_ccd_table = if addressing == AddressingStyle::SingleCommand {
        0
    } else {
        derive(&constraints, |c| {
            col(c.prev) && col(c.next) && c.scope == col_scope && c.from == RefPoint::Issue
        })
    };
    let t_ccd = if t_ccd_table > 0 { t_ccd_table } else { t_ccd_override };
    let t_ccd_l = derive(&constraints, |c| col(c.prev) && col(c.next) && c.scope == BankGroup);
    let t_rrd_l = derive(&constraints, |c| c.prev == Act && c.next == Act && c.scope == BankGroup);
    if grouped && (t_ccd_l < t_ccd || (t_rrd_l > 0 && t_rrd_l < t_rrd)) {
        return Err(SpecError::new(
            list_line,
            "long (same-bank-group) timings must not be shorter than the short ones",
        ));
    }

    let config = DeviceConfig {
        kind,
        name,
        timings: DeviceTimings {
            t_ck_ps,
            t_burst,
            t_rc,
            t_rcd,
            t_rl,
            t_rp,
            t_ras,
            t_rtrs,
            t_faw,
            t_wtr,
            t_wl,
            t_ccd,
            t_ccd_l,
            t_rrd,
            t_rrd_l,
            t_rtp,
            t_wr,
            t_refi,
            t_rfc,
            t_xp,
            t_xsr,
        },
        geometry: DeviceGeometry {
            banks,
            bank_groups,
            rows,
            lines_per_row,
            width_bits,
            capacity_mbit,
        },
        page_policy,
        addressing,
        cpu_cycles_per_mem_cycle: ratio,
        powerdown_idle_cycles: powerdown_idle,
        self_refresh_idle_cycles: self_refresh_idle,
        refresh_per_bank,
        constraints,
    };
    Ok(DeviceSpec { id, config, exempts })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_embedded_specs_load() {
        for id in DeviceSpec::embedded_ids() {
            let spec = DeviceSpec::embedded(id).expect("embedded spec present");
            assert_eq!(spec.id, id);
            assert_eq!(spec.config.kind.spec_id(), id, "kind/spec-id mismatch for {id}");
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(DeviceSpec::embedded("sdram_pc133").is_none());
    }

    fn ddr3_text() -> &'static str {
        EMBEDDED.iter().find(|(id, _)| *id == "ddr3_1600").unwrap().1
    }

    #[test]
    fn unknown_key_is_rejected() {
        let text = format!("{}\n[device]\nfrobnicate = 3\n", ddr3_text());
        // Appending re-opens [device]; the bogus key must be flagged.
        let err = DeviceSpec::load_str(&text).unwrap_err();
        assert!(err.msg.contains("frobnicate"), "{err}");
    }

    #[test]
    fn negative_timing_is_rejected() {
        let text = ddr3_text().replace("t-rl = 11", "t-rl = -11");
        let err = DeviceSpec::load_str(&text).unwrap_err();
        assert!(err.msg.contains("t-rl"), "{err}");
    }

    #[test]
    fn zero_constraint_cycles_are_rejected() {
        let text = ddr3_text().replace("act -> act @bank 40", "act -> act @bank 0");
        let err = DeviceSpec::load_str(&text).unwrap_err();
        assert!(err.msg.contains("positive"), "{err}");
    }

    #[test]
    fn unknown_command_is_rejected() {
        let text = ddr3_text().replace("act -> act @bank 40", "nop -> act @bank 40");
        let err = DeviceSpec::load_str(&text).unwrap_err();
        assert!(err.msg.contains("unknown command"), "{err}");
    }

    #[test]
    fn unenforceable_shape_is_rejected() {
        // pre -> pre spacing is not something the channel models.
        let text = ddr3_text().replace("act -> act @bank 40", "pre -> pre @bank 40");
        let err = DeviceSpec::load_str(&text).unwrap_err();
        assert!(err.msg.contains("not enforced"), "{err}");
    }

    #[test]
    fn bank_group_scope_requires_groups() {
        let text = ddr3_text().replace("act -> act @rank 5", "act -> act @bank-group 5");
        let err = DeviceSpec::load_str(&text).unwrap_err();
        assert!(err.msg.contains("bank group"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let spec = DeviceSpec::load_str(ddr3_text()).unwrap();
        assert_eq!(spec.config.timings.t_rc, 40);
        assert_eq!(spec.config.timings.t_rcd, 11);
    }
}

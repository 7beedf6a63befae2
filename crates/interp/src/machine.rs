//! The interpreter engine.

use sdfg_core::desc::DataDesc;
use sdfg_core::{Instrument, Node, Sdfg, StateId, Subset, Wcr};
use sdfg_graph::{EdgeId, NodeId};
use sdfg_lang::{LangError, OutPort, RuntimeError, TaskletProgram, TaskletVm};
use sdfg_profile::{
    InstrumentationReport, Mode as ProfMode, ProfileCollector, Profiling, Span, SpanKey,
    WorkerProfile,
};
use sdfg_symbolic::{Env, EvalError};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Interpreter failure.
#[derive(Debug)]
pub enum InterpError {
    /// A non-transient array was not provided before `run`.
    MissingArray(String),
    /// Provided array size does not match the evaluated shape.
    SizeMismatch {
        /// Container name.
        name: String,
        /// Expected element count.
        expected: usize,
        /// Provided element count.
        got: usize,
    },
    /// Symbolic evaluation failed (unbound symbol / division by zero).
    Symbolic(EvalError),
    /// Tasklet failed to parse/compile.
    Lang(LangError),
    /// Tasklet runtime error.
    Runtime(RuntimeError),
    /// Tasklet written in an external language cannot be interpreted.
    ExternalTasklet(String),
    /// The state machine exceeded the transition limit.
    StepLimit(usize),
    /// Structural problem (should have been caught by validation).
    BadGraph(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::MissingArray(n) => write!(f, "array `{n}` was not provided"),
            InterpError::SizeMismatch {
                name,
                expected,
                got,
            } => write!(f, "array `{name}`: expected {expected} elements, got {got}"),
            InterpError::Symbolic(e) => write!(f, "symbolic evaluation: {e}"),
            InterpError::Lang(e) => write!(f, "tasklet compilation: {e}"),
            InterpError::Runtime(e) => write!(f, "tasklet execution: {e}"),
            InterpError::ExternalTasklet(n) => {
                write!(f, "tasklet `{n}` uses external code; not interpretable")
            }
            InterpError::StepLimit(n) => write!(f, "exceeded {n} state transitions"),
            InterpError::BadGraph(m) => write!(f, "malformed graph: {m}"),
        }
    }
}

impl std::error::Error for InterpError {}

impl From<EvalError> for InterpError {
    fn from(e: EvalError) -> Self {
        InterpError::Symbolic(e)
    }
}

impl From<LangError> for InterpError {
    fn from(e: LangError) -> Self {
        InterpError::Lang(e)
    }
}

impl From<RuntimeError> for InterpError {
    fn from(e: RuntimeError) -> Self {
        InterpError::Runtime(e)
    }
}

enum CompiledWcr {
    Builtin(Wcr),
    Custom(TaskletProgram),
}

impl CompiledWcr {
    fn compile(wcr: &Wcr) -> Result<CompiledWcr, InterpError> {
        match wcr {
            Wcr::Custom(code) => {
                let prog = TaskletProgram::compile(
                    &format!("__r = {code}"),
                    &["old".into(), "new".into()],
                    &["__r".into()],
                )?;
                Ok(CompiledWcr::Custom(prog))
            }
            other => Ok(CompiledWcr::Builtin(other.clone())),
        }
    }

    fn apply(&self, vm: &mut TaskletVm, old: f64, new: f64) -> Result<f64, InterpError> {
        match self {
            CompiledWcr::Builtin(w) => Ok(w.apply(old, new).expect("builtin wcr")),
            CompiledWcr::Custom(prog) => {
                let mut out = [0.0f64];
                vm.run_simple(prog, &[&[old], &[new]], &mut [&mut out])?;
                Ok(out[0])
            }
        }
    }

    fn identity(&self, dtype: sdfg_core::DType) -> Option<f64> {
        match self {
            CompiledWcr::Builtin(w) => w.identity(dtype),
            CompiledWcr::Custom(_) => None,
        }
    }
}

struct CompiledTasklet {
    prog: TaskletProgram,
    in_edges: Vec<EdgeId>,
    /// Output connectors in program slot order, each with its edges.
    out_conns: Vec<(String, Vec<EdgeId>)>,
}

/// The reference interpreter. Owns container storage between `run` calls.
pub struct Interpreter<'s> {
    sdfg: &'s Sdfg,
    /// Array and scalar storage by container name.
    pub arrays: HashMap<String, Vec<f64>>,
    /// Stream queues by container name (flattened over the queue-array).
    pub streams: HashMap<String, VecDeque<f64>>,
    /// Symbol bindings.
    pub symbols: Env,
    programs: HashMap<(u32, u32), CompiledTasklet>,
    vm: TaskletVm,
    /// Maximum number of state transitions before aborting (default 10M).
    pub max_transitions: usize,
    /// Profiling switch for the next `run` (default off).
    pub profiling: Profiling,
    /// Instrumentation report from the last profiled `run`.
    pub last_report: Option<InstrumentationReport>,
    /// Live profiling state during a `run`; the interpreter is
    /// single-threaded, so everything records as worker 0.
    prof: Option<InterpProf>,
}

/// Pre-resolved per-scope modes plus the single worker profile.
struct InterpProf {
    collector: ProfileCollector,
    state_modes: HashMap<u32, ProfMode>,
    map_modes: HashMap<(u32, u32), ProfMode>,
    wp: WorkerProfile,
}

impl InterpProf {
    fn build(sdfg: &Sdfg, profiling: Profiling) -> Option<InterpProf> {
        if profiling == Profiling::Off {
            return None;
        }
        let resolve = |ann: Instrument| -> ProfMode {
            match (profiling, ann) {
                (Profiling::ForceTimers, _) => ProfMode::Timer,
                (_, Instrument::Timer) => ProfMode::Timer,
                (_, Instrument::Counter) => ProfMode::Counter,
                (_, Instrument::None) => ProfMode::Off,
            }
        };
        let collector = ProfileCollector::new();
        let mut state_modes = HashMap::new();
        let mut map_modes = HashMap::new();
        for sid in sdfg.graph.node_ids() {
            let state = sdfg.graph.node(sid);
            let sm = resolve(state.instrument);
            if sm != ProfMode::Off {
                state_modes.insert(sid.0, sm);
                collector.register_label(SpanKey::State(sid.0), state.label.clone());
            }
            for nid in state.graph.node_ids() {
                if let Node::MapEntry(m) = state.graph.node(nid) {
                    let mm = resolve(m.instrument);
                    if mm != ProfMode::Off {
                        map_modes.insert((sid.0, nid.0), mm);
                        collector.register_label(
                            SpanKey::Map {
                                state: sid.0,
                                node: nid.0,
                            },
                            format!("{} {}", m.label, state.graph.node(nid).label()),
                        );
                    }
                }
            }
        }
        Some(InterpProf {
            collector,
            state_modes,
            map_modes,
            wp: WorkerProfile::new(0),
        })
    }

    #[inline]
    fn state_mode(&self, sid: u32) -> ProfMode {
        self.state_modes.get(&sid).copied().unwrap_or(ProfMode::Off)
    }

    #[inline]
    fn map_mode(&self, key: (u32, u32)) -> ProfMode {
        self.map_modes.get(&key).copied().unwrap_or(ProfMode::Off)
    }
}

impl<'s> Interpreter<'s> {
    /// Creates an interpreter for an SDFG.
    pub fn new(sdfg: &'s Sdfg) -> Interpreter<'s> {
        Interpreter {
            sdfg,
            arrays: HashMap::new(),
            streams: HashMap::new(),
            symbols: Env::new(),
            programs: HashMap::new(),
            vm: TaskletVm::new(),
            max_transitions: 10_000_000,
            profiling: Profiling::default(),
            last_report: None,
            prof: None,
        }
    }

    /// Binds a symbol.
    pub fn set_symbol(&mut self, name: &str, value: i64) -> &mut Self {
        self.symbols.insert(name.to_string(), value);
        self
    }

    /// Provides an array's contents.
    pub fn set_array(&mut self, name: &str, data: Vec<f64>) -> &mut Self {
        self.arrays.insert(name.to_string(), data);
        self
    }

    /// Reads an array after `run`.
    pub fn array(&self, name: &str) -> &[f64] {
        self.arrays
            .get(name)
            .unwrap_or_else(|| panic!("array `{name}` not present"))
    }

    /// Runs the SDFG to completion.
    pub fn run(&mut self) -> Result<(), InterpError> {
        self.prepare()?;
        self.prof = InterpProf::build(self.sdfg, self.profiling);
        let result = self.run_states();
        if let Some(p) = self.prof.take() {
            let InterpProf { collector, wp, .. } = p;
            // Spans are process-epoch stamped; the run's wall time is the
            // collector's own age.
            let wall = collector.elapsed();
            if !wp.is_empty() {
                collector.absorb(wp);
            }
            self.last_report = Some(collector.finish(wall));
        }
        if result.is_ok() {
            sdfg_profile::metrics::core().interp_runs.inc();
        }
        result
    }

    fn run_states(&mut self) -> Result<(), InterpError> {
        let Some(start) = self.sdfg.start else {
            return Ok(());
        };
        let mut cur: StateId = start;
        let mut steps = 0usize;
        loop {
            steps += 1;
            if steps > self.max_transitions {
                return Err(InterpError::StepLimit(self.max_transitions));
            }
            self.exec_state(cur)?;
            // Evaluate outgoing transitions in deterministic (edge id) order.
            let env = self.interstate_env();
            let mut next = None;
            for e in self.sdfg.graph.out_edges(cur) {
                let t = self.sdfg.graph.edge(e);
                if t.condition.eval(&env)? {
                    next = Some((self.sdfg.graph.edge_dst(e), t.assignments.clone()));
                    break;
                }
            }
            let Some((dst, assigns)) = next else {
                return Ok(()); // program terminates
            };
            for (sym, expr) in &assigns {
                let v = expr.eval(&self.interstate_env())?;
                self.symbols.insert(sym.clone(), v);
            }
            cur = dst;
        }
    }

    /// Allocates transients and checks provided arrays.
    fn prepare(&mut self) -> Result<(), InterpError> {
        for (name, desc) in &self.sdfg.data {
            match desc {
                DataDesc::Array(a) => {
                    let size: i64 = {
                        let mut s = 1i64;
                        for d in &a.shape {
                            s = s.saturating_mul(d.eval(&self.symbols)?.max(0));
                        }
                        s
                    };
                    let size = size as usize;
                    match self.arrays.get(name) {
                        Some(v) => {
                            if v.len() != size {
                                return Err(InterpError::SizeMismatch {
                                    name: name.clone(),
                                    expected: size,
                                    got: v.len(),
                                });
                            }
                        }
                        None if a.transient => {
                            self.arrays.insert(name.clone(), vec![0.0; size]);
                        }
                        None => return Err(InterpError::MissingArray(name.clone())),
                    }
                }
                DataDesc::Scalar(s) => {
                    if !self.arrays.contains_key(name) {
                        if s.transient {
                            self.arrays.insert(name.clone(), vec![0.0]);
                        } else {
                            // Non-transient scalars default to zero as well;
                            // they are often outputs.
                            self.arrays.insert(name.clone(), vec![0.0]);
                        }
                    }
                }
                DataDesc::Stream(_) => {
                    self.streams.entry(name.clone()).or_default();
                }
            }
        }
        Ok(())
    }

    /// Environment for interstate conditions: symbols plus scalar-valued
    /// containers (scalars and single-element arrays) and stream lengths
    /// (`len_<stream>` pseudo-symbols, the `len(S)` of Fig. 8).
    fn interstate_env(&self) -> Env {
        let mut env = self.symbols.clone();
        for (name, q) in &self.streams {
            env.insert(format!("len_{name}"), q.len() as i64);
        }
        for (name, desc) in &self.sdfg.data {
            let scalarish = match desc {
                DataDesc::Scalar(_) => true,
                DataDesc::Array(_) => self.arrays.get(name).is_some_and(|v| v.len() == 1),
                DataDesc::Stream(_) => false,
            };
            if scalarish {
                if let Some(v) = self.arrays.get(name) {
                    if let Some(&x) = v.first() {
                        env.insert(name.clone(), x.round() as i64);
                    }
                }
            }
        }
        env
    }

    fn exec_state(&mut self, sid: StateId) -> Result<(), InterpError> {
        let mode = match &self.prof {
            Some(p) => p.state_mode(sid.0),
            None => ProfMode::Off,
        };
        let start = match (mode, &self.prof) {
            (ProfMode::Timer, Some(p)) => Some(p.collector.now_ns()),
            _ => None,
        };
        let state = self.sdfg.state(sid);
        let tree = sdfg_core::scope::scope_tree(state)
            .map_err(|e| InterpError::BadGraph(e.to_string()))?;
        let order = state.topological_order();
        let env = self.symbols.clone();
        for n in order {
            if tree.scope_of(n).is_none() {
                self.exec_node(sid, &tree, n, &env, None)?;
            }
        }
        self.prof_scope(mode, start, SpanKey::State(sid.0));
        Ok(())
    }

    /// Records one scope entry into the worker-0 profile.
    fn prof_scope(&mut self, mode: ProfMode, start: Option<u64>, key: SpanKey) {
        let Some(p) = self.prof.as_mut() else { return };
        match mode {
            ProfMode::Off => {}
            ProfMode::Counter => {
                let stat = match key {
                    SpanKey::State(s) => p.wp.states.entry(s).or_default(),
                    SpanKey::Map { state, node } => p.wp.maps.entry((state, node)).or_default(),
                };
                stat.bump();
            }
            ProfMode::Timer => {
                let Some(s) = start else { return };
                let dur = p.collector.now_ns().saturating_sub(s);
                let stat = match key {
                    SpanKey::State(st) => p.wp.states.entry(st).or_default(),
                    SpanKey::Map { state, node } => p.wp.maps.entry((state, node)).or_default(),
                };
                stat.record(dur);
                p.wp.timeline.push(Span {
                    key,
                    worker: 0,
                    start_ns: s,
                    dur_ns: dur,
                });
            }
        }
    }

    /// Executes one node. `stream_override` supplies the popped element for
    /// consume-scope bodies: `(stream_name, value)`.
    fn exec_node(
        &mut self,
        sid: StateId,
        tree: &sdfg_core::scope::ScopeTree,
        n: NodeId,
        env: &Env,
        stream_override: Option<(&str, f64)>,
    ) -> Result<(), InterpError> {
        let state = self.sdfg.state(sid);
        match state.graph.node(n) {
            Node::Access { .. } => self.exec_access(sid, n, env),
            Node::Tasklet { .. } => self.exec_tasklet(sid, n, env, stream_override),
            Node::MapEntry(_) => self.exec_map(sid, tree, n, env),
            Node::ConsumeEntry(_) => self.exec_consume(sid, tree, n, env),
            Node::MapExit { .. } | Node::ConsumeExit { .. } => Ok(()),
            Node::Reduce { .. } => self.exec_reduce(sid, n, env),
            Node::NestedSdfg { .. } => self.exec_nested(sid, n, env),
        }
    }

    /// Copies along access→access edges (and array↔stream initialization),
    /// plus copies arriving from scope entries (local-storage tiles).
    fn exec_access(&mut self, sid: StateId, n: NodeId, env: &Env) -> Result<(), InterpError> {
        let state = self.sdfg.state(sid);
        let dst_name = state.graph.node(n).access_data().unwrap().to_string();
        let in_edges: Vec<EdgeId> = state.graph.in_edges(n).collect();
        for e in in_edges {
            let src = state.graph.edge_src(e);
            if !state.graph.node(src).is_scope_entry() {
                continue;
            }
            let m = state.graph.edge(e).memlet.clone();
            if m.is_empty() || m.data_name() == dst_name {
                continue;
            }
            // Copy global window → local buffer.
            let window = self.gather(m.data_name(), &m.subset, env)?;
            let dst_subset = match &m.other_subset {
                Some(s) => s.clone(),
                None => {
                    let desc = self
                        .sdfg
                        .desc(&dst_name)
                        .ok_or_else(|| InterpError::MissingArray(dst_name.clone()))?;
                    Subset::full(desc.shape())
                }
            };
            self.scatter_plain(&dst_name, &dst_subset, env, &window)?;
        }
        let out_edges: Vec<EdgeId> = state.graph.out_edges(n).collect();
        for e in out_edges {
            let dst = state.graph.edge_dst(e);
            if !matches!(state.graph.node(dst), Node::Access { .. }) {
                continue;
            }
            let dst_data = state.graph.node(dst).access_data().unwrap().to_string();
            let src_data = state.graph.node(n).access_data().unwrap().to_string();
            let memlet = state.graph.edge(e).memlet.clone();
            if memlet.is_empty() {
                continue;
            }
            let src_is_stream = matches!(self.sdfg.desc(&src_data), Some(DataDesc::Stream(_)));
            let dst_is_stream = matches!(self.sdfg.desc(&dst_data), Some(DataDesc::Stream(_)));
            match (src_is_stream, dst_is_stream) {
                (false, false) => {
                    let src_subset = if memlet.data.as_deref() == Some(&src_data) {
                        memlet.subset.clone()
                    } else {
                        memlet.other_subset.clone().unwrap_or(memlet.subset.clone())
                    };
                    let dst_subset = memlet
                        .other_subset
                        .clone()
                        .unwrap_or_else(|| src_subset.clone());
                    let window = self.gather(&src_data, &src_subset, env)?;
                    self.scatter_plain(&dst_data, &dst_subset, env, &window)?;
                }
                (false, true) => {
                    // Array → stream: push the subset contents.
                    let window = self.gather(&src_data, &memlet.subset, env)?;
                    let q = self.streams.entry(dst_data).or_default();
                    q.extend(window);
                }
                (true, false) => {
                    // Stream → array: drain into the destination subset.
                    // Dynamic memlets drain everything available (bounded by
                    // the window capacity).
                    let dst_subset = memlet
                        .other_subset
                        .clone()
                        .unwrap_or_else(|| memlet.subset.clone());
                    let dims = dst_subset.eval(env)?;
                    let capacity = count_elems(&dims);
                    let q = self.streams.entry(src_data).or_default();
                    let count = if memlet.dynamic {
                        capacity.min(q.len())
                    } else {
                        capacity
                    };
                    let mut window = Vec::with_capacity(count);
                    for _ in 0..count {
                        window.push(q.pop_front().unwrap_or(0.0));
                    }
                    // Partial drains scatter only the drained prefix.
                    let prefix = sdfg_symbolic::Subset::new(vec![sdfg_symbolic::SymRange::new(
                        0,
                        count as i64,
                    )]);
                    let target = if memlet.dynamic && count < capacity {
                        &prefix
                    } else {
                        &dst_subset
                    };
                    self.scatter_plain(&dst_data, target, env, &window)?;
                }
                (true, true) => {
                    // Stream → stream: drain-append (LocalStream flushes).
                    let drained: Vec<f64> = self
                        .streams
                        .get_mut(&src_data)
                        .map(|q| q.drain(..).collect())
                        .unwrap_or_default();
                    self.streams.entry(dst_data).or_default().extend(drained);
                }
            }
        }
        Ok(())
    }

    fn compile_tasklet(&mut self, sid: StateId, n: NodeId) -> Result<(), InterpError> {
        let key = (sid.0, n.0);
        if self.programs.contains_key(&key) {
            return Ok(());
        }
        let state = self.sdfg.state(sid);
        let Node::Tasklet {
            name, code, lang, ..
        } = state.graph.node(n)
        else {
            unreachable!()
        };
        if *lang != sdfg_core::TaskletLang::Python {
            return Err(InterpError::ExternalTasklet(name.clone()));
        }
        let mut in_edges = Vec::new();
        let mut in_conns = Vec::new();
        for e in state.graph.in_edges(n) {
            let df = state.graph.edge(e);
            if df.memlet.is_empty() {
                continue;
            }
            let Some(conn) = &df.dst_conn else { continue };
            in_edges.push(e);
            in_conns.push(conn.clone());
        }
        let mut out_conns: Vec<(String, Vec<EdgeId>)> = Vec::new();
        for e in state.graph.out_edges(n) {
            let df = state.graph.edge(e);
            if df.memlet.is_empty() {
                continue;
            }
            let Some(conn) = &df.src_conn else { continue };
            match out_conns.iter_mut().find(|(c, _)| c == conn) {
                Some((_, v)) => v.push(e),
                None => out_conns.push((conn.clone(), vec![e])),
            }
        }
        let out_names: Vec<String> = out_conns.iter().map(|(c, _)| c.clone()).collect();
        let prog = TaskletProgram::compile(code, &in_conns, &out_names)?;
        self.programs.insert(
            key,
            CompiledTasklet {
                prog,
                in_edges,
                out_conns,
            },
        );
        Ok(())
    }

    fn exec_tasklet(
        &mut self,
        sid: StateId,
        n: NodeId,
        env: &Env,
        stream_override: Option<(&str, f64)>,
    ) -> Result<(), InterpError> {
        self.compile_tasklet(sid, n)?;
        let key = (sid.0, n.0);
        // Gather inputs.
        let ct = &self.programs[&key];
        let in_edges = ct.in_edges.clone();
        let out_conns = ct.out_conns.clone();
        let state = self.sdfg.state(sid);
        let mut windows: Vec<Vec<f64>> = Vec::with_capacity(in_edges.len());
        for &e in &in_edges {
            let m = state.graph.edge(e).memlet.clone();
            let data = m.data_name().to_string();
            if let Some((s, v)) = stream_override {
                if s == data {
                    windows.push(vec![v]);
                    continue;
                }
            }
            if matches!(self.sdfg.desc(&data), Some(DataDesc::Stream(_))) {
                // Pop one element per execution.
                let q = self.streams.entry(data).or_default();
                windows.push(vec![q.pop_front().unwrap_or(0.0)]);
            } else {
                windows.push(self.gather(&data, &m.subset, env)?);
            }
        }
        // Prepare output buffers.
        struct OutBuf {
            conn_edges: Vec<EdgeId>,
            stream: bool,
            buf: Vec<f64>,
        }
        let mut outs: Vec<OutBuf> = Vec::new();
        for (_, edges) in &out_conns {
            let first = edges[0];
            let m = &state.graph.edge(first).memlet;
            let data = m.data_name().to_string();
            let is_stream = matches!(self.sdfg.desc(&data), Some(DataDesc::Stream(_)));
            let buf = if is_stream {
                Vec::new()
            } else {
                let dims = m.subset.eval(env)?;
                let len = count_elems(&dims);
                if let Some(w) = &m.wcr {
                    // Identity prefill (per element type).
                    let dtype = self.sdfg.desc(&data).map(|d| d.dtype()).unwrap();
                    let wcr = CompiledWcr::compile(w)?;
                    vec![wcr.identity(dtype).unwrap_or(0.0); len]
                } else {
                    // Prefill with current contents (partial writes, `+=`).
                    self.gather(&data, &m.subset, env)?
                }
            };
            outs.push(OutBuf {
                conn_edges: edges.clone(),
                stream: is_stream,
                buf,
            });
        }
        // Run the VM (resolving any SDFG symbols the body references).
        {
            let prog = &self.programs[&key].prog;
            let mut syms = Vec::with_capacity(prog.symbols.len());
            for name in &prog.symbols {
                let v = env
                    .get(name)
                    .copied()
                    .ok_or_else(|| EvalError::UnboundSymbol(name.clone()))?;
                syms.push(v as f64);
            }
            let ins: Vec<&[f64]> = windows.iter().map(|w| w.as_slice()).collect();
            let mut ports: Vec<OutPort> = outs
                .iter_mut()
                .map(|o| {
                    if o.stream {
                        OutPort::Stream(&mut o.buf)
                    } else {
                        OutPort::Mem(&mut o.buf)
                    }
                })
                .collect();
            self.vm.run_with_syms(prog, &ins, &mut ports, &syms)?;
        }
        // Scatter outputs.
        for o in outs {
            for &e in &o.conn_edges {
                let m = self.sdfg.state(sid).graph.edge(e).memlet.clone();
                let data = m.data_name().to_string();
                if o.stream {
                    let q = self.streams.entry(data).or_default();
                    q.extend(o.buf.iter().copied());
                } else if let Some(wcr) = &m.wcr {
                    let cw = CompiledWcr::compile(wcr)?;
                    self.scatter_wcr(&data, &m.subset, env, &o.buf, &cw)?;
                } else {
                    self.scatter_plain(&data, &m.subset, env, &o.buf)?;
                }
            }
        }
        Ok(())
    }

    fn exec_map(
        &mut self,
        sid: StateId,
        tree: &sdfg_core::scope::ScopeTree,
        entry: NodeId,
        env: &Env,
    ) -> Result<(), InterpError> {
        let pmode = match &self.prof {
            Some(p) => p.map_mode((sid.0, entry.0)),
            None => ProfMode::Off,
        };
        let pstart = match (pmode, &self.prof) {
            (ProfMode::Timer, Some(p)) => Some(p.collector.now_ns()),
            _ => None,
        };
        let state = self.sdfg.state(sid);
        let Node::MapEntry(scope) = state.graph.node(entry) else {
            unreachable!()
        };
        let params = scope.params.clone();
        let ranges = scope.ranges.clone();
        // Dynamic-range connectors (anything not IN_*).
        let mut env = env.clone();
        let dyn_edges: Vec<EdgeId> = state
            .graph
            .in_edges(entry)
            .filter(|&e| {
                let df = state.graph.edge(e);
                df.dst_conn
                    .as_deref()
                    .is_some_and(|c| !c.starts_with("IN_"))
            })
            .collect();
        for e in dyn_edges {
            let df = self.sdfg.state(sid).graph.edge(e);
            let conn = df.dst_conn.clone().unwrap();
            let m = df.memlet.clone();
            let w = self.gather(m.data_name(), &m.subset, &env)?;
            env.insert(conn, w[0].round() as i64);
        }
        // Children in topological order (immediate members only).
        let order = self.sdfg.state(sid).topological_order();
        let children: Vec<NodeId> = order
            .into_iter()
            .filter(|&c| tree.scope_of(c) == Some(entry))
            .collect();
        // Scope-owned transients (fresh per iteration) and write-back edges
        // (access → exit) flushed after each iteration.
        let state = self.sdfg.state(sid);
        let mut owned: Vec<String> = Vec::new();
        let mut writebacks: Vec<EdgeId> = Vec::new();
        let members = sdfg_core::scope::scope_members(state, entry);
        for &c in members.iter() {
            let Some(d) = state.graph.node(c).access_data() else {
                continue;
            };
            if tree.scope_of(c) == Some(entry)
                && self.sdfg.desc(d).is_some_and(|x| x.transient())
                && !owned.contains(&d.to_string())
                && scope_owns_container(self.sdfg, sid, &members, d)
            {
                owned.push(d.to_string());
            }
            for e in state.graph.out_edges(c) {
                let dst = state.graph.edge_dst(e);
                if state.graph.node(dst).exit_entry() == Some(entry)
                    && !state.graph.edge(e).memlet.is_empty()
                {
                    let m = &state.graph.edge(e).memlet;
                    if m.data_name() != d {
                        writebacks.push(e);
                    }
                }
            }
        }
        // Enumerate the iteration space as a recursive loop nest so that
        // inner ranges may reference outer parameters (triangular maps).
        let r = self.map_dim(
            sid,
            tree,
            &params,
            &ranges,
            0,
            &mut env,
            &children,
            &owned,
            &writebacks,
        );
        if r.is_ok() {
            self.prof_scope(
                pmode,
                pstart,
                SpanKey::Map {
                    state: sid.0,
                    node: entry.0,
                },
            );
        }
        r
    }

    #[allow(clippy::too_many_arguments)]
    fn map_dim(
        &mut self,
        sid: StateId,
        tree: &sdfg_core::scope::ScopeTree,
        params: &[String],
        ranges: &[sdfg_symbolic::SymRange],
        dim: usize,
        env: &mut Env,
        children: &[NodeId],
        owned: &[String],
        writebacks: &[EdgeId],
    ) -> Result<(), InterpError> {
        if dim == params.len() {
            // Scope-owned transients have iteration lifetime.
            for t in owned {
                if let Some(buf) = self.arrays.get_mut(t) {
                    buf.fill(0.0);
                }
                if let Some(q) = self.streams.get_mut(t) {
                    q.clear();
                }
            }
            for &c in children {
                let env_now = env.clone();
                self.exec_node(sid, tree, c, &env_now, None)?;
            }
            // Write-backs: local → global along access→exit edges.
            let env_now = env.clone();
            for &e in writebacks {
                self.run_writeback(sid, e, &env_now)?;
            }
            return Ok(());
        }
        let (s, e, st, _) = ranges[dim].eval(env)?;
        if st <= 0 {
            return Err(InterpError::BadGraph("map step must be positive".into()));
        }
        let mut v = s;
        while v < e {
            env.insert(params[dim].clone(), v);
            self.map_dim(
                sid,
                tree,
                params,
                ranges,
                dim + 1,
                env,
                children,
                owned,
                writebacks,
            )?;
            v += st;
        }
        env.remove(&params[dim]);
        Ok(())
    }

    /// Flushes a local container to its global target along an
    /// access→exit edge.
    fn run_writeback(&mut self, sid: StateId, e: EdgeId, env: &Env) -> Result<(), InterpError> {
        let state = self.sdfg.state(sid);
        let src = state.graph.edge_src(e);
        let local = state.graph.node(src).access_data().unwrap().to_string();
        let m = state.graph.edge(e).memlet.clone();
        let global = m.data_name().to_string();
        let local_is_stream = matches!(self.sdfg.desc(&local), Some(DataDesc::Stream(_)));
        let global_is_stream = matches!(self.sdfg.desc(&global), Some(DataDesc::Stream(_)));
        if local_is_stream && global_is_stream {
            let drained: Vec<f64> = self
                .streams
                .get_mut(&local)
                .map(|q| q.drain(..).collect())
                .unwrap_or_default();
            self.streams.entry(global).or_default().extend(drained);
            return Ok(());
        }
        // Array write-back: gather the local side (other_subset or whole
        // buffer) and scatter into the global subset.
        let window = match &m.other_subset {
            Some(os) => self.gather(&local, os, env)?,
            None => self
                .arrays
                .get(&local)
                .cloned()
                .ok_or_else(|| InterpError::MissingArray(local.clone()))?,
        };
        if let Some(p) = self.prof.as_mut() {
            p.wp.bytes_moved += window.len() as u64 * std::mem::size_of::<f64>() as u64;
        }
        match &m.wcr {
            Some(w) => {
                let cw = CompiledWcr::compile(w)?;
                self.scatter_wcr(&global, &m.subset, env, &window, &cw)
            }
            None => self.scatter_plain(&global, &m.subset, env, &window),
        }
    }

    fn exec_consume(
        &mut self,
        sid: StateId,
        tree: &sdfg_core::scope::ScopeTree,
        entry: NodeId,
        env: &Env,
    ) -> Result<(), InterpError> {
        let state = self.sdfg.state(sid);
        let Node::ConsumeEntry(scope) = state.graph.node(entry) else {
            unreachable!()
        };
        let pe_param = scope.pe_param.clone();
        // The consumed stream: the in-edge whose memlet names a stream.
        let stream_name = state
            .graph
            .in_edges(entry)
            .filter_map(|e| state.graph.edge(e).memlet.data.clone())
            .find(|d| matches!(self.sdfg.desc(d), Some(DataDesc::Stream(_))))
            .ok_or_else(|| InterpError::BadGraph("consume scope without an input stream".into()))?;
        let order = state.topological_order();
        let children: Vec<NodeId> = order
            .into_iter()
            .filter(|&c| tree.scope_of(c) == Some(entry))
            .collect();
        let mut env = env.clone();
        let mut iter = 0i64;
        // Sequential drain (PEs are a parallelism hint; semantics are
        // order-insensitive by construction).
        while let Some(v) = self
            .streams
            .entry(stream_name.clone())
            .or_default()
            .pop_front()
        {
            env.insert(pe_param.clone(), iter);
            iter += 1;
            for &c in &children {
                self.exec_node(sid, tree, c, &env, Some((&stream_name, v)))?;
            }
        }
        Ok(())
    }

    fn exec_reduce(&mut self, sid: StateId, n: NodeId, env: &Env) -> Result<(), InterpError> {
        let state = self.sdfg.state(sid);
        let Node::Reduce {
            wcr,
            axes,
            identity,
        } = state.graph.node(n)
        else {
            unreachable!()
        };
        let wcr = CompiledWcr::compile(wcr)?;
        let identity = *identity;
        let axes = axes.clone();
        let in_edge = state
            .graph
            .in_edges(n)
            .next()
            .ok_or_else(|| InterpError::BadGraph("reduce without input".into()))?;
        let out_edge = state
            .graph
            .out_edges(n)
            .next()
            .ok_or_else(|| InterpError::BadGraph("reduce without output".into()))?;
        let in_m = state.graph.edge(in_edge).memlet.clone();
        let out_m = state.graph.edge(out_edge).memlet.clone();
        let window = self.gather(in_m.data_name(), &in_m.subset, env)?;
        let dims = in_m.subset.eval(env)?;
        let sizes: Vec<usize> = dims
            .iter()
            .map(|&(s, e, st, _)| (((e - s) + st - 1) / st).max(0) as usize)
            .collect();
        let rank = sizes.len();
        let reduce_axes: Vec<usize> = match &axes {
            Some(a) => a.clone(),
            None => (0..rank).collect(),
        };
        let keep_axes: Vec<usize> = (0..rank).filter(|d| !reduce_axes.contains(d)).collect();
        let out_sizes: Vec<usize> = keep_axes.iter().map(|&d| sizes[d]).collect();
        let out_len: usize = out_sizes.iter().product::<usize>().max(1);
        let mut acc = vec![
            identity
                .or_else(|| wcr.identity(sdfg_core::DType::F64))
                .unwrap_or(0.0);
            out_len
        ];
        let mut initialized =
            vec![identity.is_some() || matches!(wcr, CompiledWcr::Builtin(_)); out_len];
        // Iterate the full input space.
        let total: usize = sizes.iter().product::<usize>();
        let mut strides_out = vec![1usize; out_sizes.len()];
        for d in (0..out_sizes.len().saturating_sub(1)).rev() {
            strides_out[d] = strides_out[d + 1] * out_sizes[d + 1];
        }
        let mut in_strides = vec![1usize; rank];
        for d in (0..rank.saturating_sub(1)).rev() {
            in_strides[d] = in_strides[d + 1] * sizes[d + 1];
        }
        for (flat, &v) in window.iter().enumerate().take(total) {
            // Decompose flat into multi-index.
            let mut out_pos = 0usize;
            for (k, &d) in keep_axes.iter().enumerate() {
                let coord = (flat / in_strides[d]) % sizes[d];
                out_pos += coord * strides_out[k];
            }
            if initialized[out_pos] {
                acc[out_pos] = wcr.apply(&mut self.vm, acc[out_pos], v)?;
            } else {
                acc[out_pos] = v;
                initialized[out_pos] = true;
            }
        }
        // Scatter: if no identity was given, combine with prior contents
        // only when the node is WCR-annotated on the output memlet.
        if out_m.wcr.is_some() {
            self.scatter_wcr(out_m.data_name(), &out_m.subset, env, &acc, &wcr)?;
        } else {
            self.scatter_plain(out_m.data_name(), &out_m.subset, env, &acc)?;
        }
        Ok(())
    }

    fn exec_nested(&mut self, sid: StateId, n: NodeId, env: &Env) -> Result<(), InterpError> {
        let state = self.sdfg.state(sid);
        let Node::NestedSdfg {
            sdfg: nested,
            symbol_mapping,
            inputs,
            outputs,
        } = state.graph.node(n)
        else {
            unreachable!()
        };
        let mut sub = Interpreter::new(nested);
        sub.max_transitions = self.max_transitions;
        for (sym, expr) in symbol_mapping {
            sub.symbols.insert(sym.clone(), expr.eval(env)?);
        }
        // Copy inputs in.
        let in_edges: Vec<EdgeId> = state.graph.in_edges(n).collect();
        for e in in_edges {
            let df = state.graph.edge(e);
            let Some(conn) = &df.dst_conn else { continue };
            if !inputs.contains(conn) {
                continue;
            }
            let m = &df.memlet;
            let window = self.gather(m.data_name(), &m.subset, env)?;
            sub.arrays.insert(conn.clone(), window);
        }
        sub.run()?;
        // Copy outputs out.
        let out_edges: Vec<EdgeId> = state.graph.out_edges(n).collect();
        for e in out_edges {
            let df = self.sdfg.state(sid).graph.edge(e);
            let Some(conn) = &df.src_conn else { continue };
            if !outputs.contains(conn) {
                continue;
            }
            let m = df.memlet.clone();
            let window = sub
                .arrays
                .get(conn)
                .cloned()
                .ok_or_else(|| InterpError::MissingArray(conn.clone()))?;
            self.scatter_plain(m.data_name(), &m.subset, env, &window)?;
        }
        Ok(())
    }

    // --- windows ---------------------------------------------------------

    fn desc_strides(&self, data: &str, env: &Env) -> Result<Vec<i64>, InterpError> {
        match self.sdfg.desc(data) {
            Some(DataDesc::Array(a)) => {
                let mut out = Vec::with_capacity(a.strides.len());
                for s in &a.strides {
                    out.push(s.eval(env)?);
                }
                Ok(out)
            }
            Some(DataDesc::Scalar(_)) => Ok(vec![]),
            _ => Err(InterpError::BadGraph(format!(
                "windowed access into non-array `{data}`"
            ))),
        }
    }

    fn gather(&self, data: &str, subset: &Subset, env: &Env) -> Result<Vec<f64>, InterpError> {
        let arr = self
            .arrays
            .get(data)
            .ok_or_else(|| InterpError::MissingArray(data.to_string()))?;
        let strides = self.desc_strides(data, env)?;
        let dims = subset.eval(env)?;
        let mut out = Vec::with_capacity(count_elems(&dims));
        for_each_offset(&dims, &strides, |off| {
            out.push(*arr.get(off).unwrap_or(&0.0));
        });
        Ok(out)
    }

    fn scatter_plain(
        &mut self,
        data: &str,
        subset: &Subset,
        env: &Env,
        window: &[f64],
    ) -> Result<(), InterpError> {
        let strides = self.desc_strides(data, env)?;
        let dims = subset.eval(env)?;
        let arr = self
            .arrays
            .get_mut(data)
            .ok_or_else(|| InterpError::MissingArray(data.to_string()))?;
        let mut i = 0usize;
        for_each_offset(&dims, &strides, |off| {
            if let Some(slot) = arr.get_mut(off) {
                *slot = window[i];
            }
            i += 1;
        });
        Ok(())
    }

    fn scatter_wcr(
        &mut self,
        data: &str,
        subset: &Subset,
        env: &Env,
        window: &[f64],
        wcr: &CompiledWcr,
    ) -> Result<(), InterpError> {
        let strides = self.desc_strides(data, env)?;
        let dims = subset.eval(env)?;
        // Collect offsets first to keep the borrow checker happy around the
        // VM borrow in custom WCRs.
        let mut offsets = Vec::with_capacity(count_elems(&dims));
        for_each_offset(&dims, &strides, |off| offsets.push(off));
        for (i, off) in offsets.into_iter().enumerate() {
            let old = *self
                .arrays
                .get(data)
                .ok_or_else(|| InterpError::MissingArray(data.to_string()))?
                .get(off)
                .unwrap_or(&0.0);
            let combined = wcr.apply(&mut self.vm, old, window[i])?;
            if let Some(slot) = self.arrays.get_mut(data).unwrap().get_mut(off) {
                *slot = combined;
            }
        }
        Ok(())
    }
}

/// True when every access to `data` in the whole SDFG lies inside the
/// scope of `entry` in state `sid` — only then does the container have
/// scope lifetime (fresh per iteration, thread-private).
fn scope_owns_container(sdfg: &Sdfg, sid: StateId, members: &[NodeId], data: &str) -> bool {
    for other_sid in sdfg.graph.node_ids() {
        let other = sdfg.graph.node(other_sid);
        for n in other.graph.node_ids() {
            if other.graph.node(n).access_data() == Some(data)
                && !(other_sid == sid && members.contains(&n))
            {
                return false;
            }
        }
    }
    true
}

/// Number of elements selected by evaluated subset dims.
fn count_elems(dims: &[(i64, i64, i64, i64)]) -> usize {
    let mut n = 1usize;
    for &(s, e, st, t) in dims {
        let len = if st > 0 { ((e - s) + st - 1) / st } else { 0 };
        n = n
            .saturating_mul(len.max(0) as usize)
            .saturating_mul(t.max(1) as usize);
    }
    n
}

/// Iterates flat element offsets of a strided subset in row-major order.
fn for_each_offset(dims: &[(i64, i64, i64, i64)], strides: &[i64], mut f: impl FnMut(usize)) {
    if dims.is_empty() {
        f(0);
        return;
    }
    // Expand tiles into the innermost dimension.
    let mut idx: Vec<i64> = dims.iter().map(|d| d.0).collect();
    if dims.iter().any(|&(s, e, _, _)| s >= e) {
        return;
    }
    loop {
        let mut base = 0i64;
        for (d, &(_, _, _, _t)) in dims.iter().enumerate() {
            base += idx[d] * strides.get(d).copied().unwrap_or(1);
        }
        let tile = dims.last().map(|d| d.3.max(1)).unwrap_or(1);
        for t in 0..tile {
            let off = base + t;
            if off >= 0 {
                f(off as usize);
            }
        }
        // Odometer.
        let mut d = dims.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += dims[d].2;
            if idx[d] < dims[d].1 {
                break;
            }
            idx[d] = dims[d].0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfg_core::node::{ConsumeScope, MapScope};
    use sdfg_core::sdfg::InterstateEdge;
    use sdfg_core::{DType, Memlet, Schedule};
    use sdfg_frontend::SdfgBuilder;
    use sdfg_symbolic::SymRange;

    #[test]
    fn vector_add_runs() {
        let mut b = SdfgBuilder::new("vadd");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        b.array("B", &["N"], DType::F64);
        b.array("C", &["N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "add",
            &[("i", "0:N")],
            &[("a", "A", "i"), ("b", "B", "i")],
            "c = a + b",
            &[("c", "C", "i")],
        );
        let sdfg = b.build().unwrap();
        let mut it = Interpreter::new(&sdfg);
        it.set_symbol("N", 5);
        it.set_array("A", vec![1.0; 5]);
        it.set_array("B", (0..5).map(|x| x as f64).collect());
        it.set_array("C", vec![0.0; 5]);
        it.run().unwrap();
        assert_eq!(it.array("C"), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn wcr_dot_product() {
        let mut b = SdfgBuilder::new("dot");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        b.array("B", &["N"], DType::F64);
        b.array("out", &["1"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet_wcr(
            st,
            "mul",
            &[("i", "0:N")],
            &[("a", "A", "i"), ("b", "B", "i")],
            "o = a * b",
            &[("o", "out", "0", Some(Wcr::Sum))],
            Schedule::CpuMulticore,
        );
        let sdfg = b.build().unwrap();
        let mut it = Interpreter::new(&sdfg);
        it.set_symbol("N", 4);
        it.set_array("A", vec![1.0, 2.0, 3.0, 4.0]);
        it.set_array("B", vec![10.0, 10.0, 10.0, 10.0]);
        it.set_array("out", vec![0.0]);
        it.run().unwrap();
        assert_eq!(it.array("out"), &[100.0]);
    }

    #[test]
    fn laplace_time_loop() {
        // Fig. 2: double-buffered 1-D stencil over a state-machine loop.
        let src = r#"
def laplace(A: dace.float64[2, N], T: dace.int64):
    for t in range(T):
        for i in dace.map[1:N - 1]:
            with dace.tasklet:
                l << A[t % 2, i - 1]
                c << A[t % 2, i]
                r << A[t % 2, i + 1]
                out >> A[(t + 1) % 2, i]
                out = l - 2 * c + r
"#;
        let sdfg = sdfg_frontend::parse_program(src).unwrap();
        let n = 8usize;
        let mut a = vec![0.0; 2 * n];
        a[3] = 1.0; // impulse in buffer 0
        let mut it = Interpreter::new(&sdfg);
        it.set_symbol("N", n as i64);
        it.set_symbol("T", 1);
        it.set_array("A", a.clone());
        it.run().unwrap();
        let out = &it.array("A")[n..]; // buffer 1
                                       // Laplace of an impulse: [.., 1, -2, 1, ..]
        assert_eq!(out[2], 1.0);
        assert_eq!(out[3], -2.0);
        assert_eq!(out[4], 1.0);
        // Reference second step for T=2 matches manual computation.
        let mut it2 = Interpreter::new(&sdfg);
        it2.set_symbol("N", n as i64);
        it2.set_symbol("T", 2);
        it2.set_array("A", a);
        it2.run().unwrap();
        let out2 = &it2.array("A")[..n]; // buffer 0 again
                                         // step2[i] = s1[i-1] - 2*s1[i] + s1[i+1]; s1 = [0,0,1,-2,1,0,0,0]
                                         // step2[3] = 1 - 2*(-2) + 1 = 6.
        assert_eq!(out2[3], 6.0);
    }

    #[test]
    fn laplace_step2_value() {
        // Isolated check of the comment above.
        let src = r#"
def laplace(A: dace.float64[2, N], T: dace.int64):
    for t in range(T):
        for i in dace.map[1:N - 1]:
            with dace.tasklet:
                l << A[t % 2, i - 1]
                c << A[t % 2, i]
                r << A[t % 2, i + 1]
                out >> A[(t + 1) % 2, i]
                out = l - 2 * c + r
"#;
        let sdfg = sdfg_frontend::parse_program(src).unwrap();
        let n = 8usize;
        let mut a = vec![0.0; 2 * n];
        a[3] = 1.0;
        let mut it = Interpreter::new(&sdfg);
        it.set_symbol("N", n as i64);
        it.set_symbol("T", 2);
        it.set_array("A", a);
        it.run().unwrap();
        assert_eq!(it.array("A")[3], 6.0);
    }

    #[test]
    fn branch_state_machine() {
        // Fig. 10a-style data-dependent branching.
        let src = r#"
def branchy(A: dace.float64[4], C: dace.int64):
    if C < 5:
        for i in dace.map[0:4]:
            A[i] = A[i] * 2
    else:
        for i in dace.map[0:4]:
            A[i] = A[i] / 2
"#;
        let sdfg = sdfg_frontend::parse_program(src).unwrap();
        let mut it = Interpreter::new(&sdfg);
        it.set_symbol("C", 3);
        it.set_array("A", vec![1.0, 2.0, 3.0, 4.0]);
        it.run().unwrap();
        assert_eq!(it.array("A"), &[2.0, 4.0, 6.0, 8.0]);
        let mut it2 = Interpreter::new(&sdfg);
        it2.set_symbol("C", 7);
        it2.set_array("A", vec![2.0, 4.0, 6.0, 8.0]);
        it2.run().unwrap();
        assert_eq!(it2.array("A"), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn matmul_with_wcr() {
        let src = r#"
def mm(A: dace.float64[M, K], B: dace.float64[K, N], C: dace.float64[M, N]):
    for i, j, k in dace.map[0:M, 0:N, 0:K]:
        C[i, j] += A[i, k] * B[k, j]
"#;
        let sdfg = sdfg_frontend::parse_program(src).unwrap();
        let (m, k, n) = (3usize, 4usize, 2usize);
        let a: Vec<f64> = (0..m * k).map(|x| x as f64).collect();
        let bm: Vec<f64> = (0..k * n).map(|x| (x % 3) as f64).collect();
        let mut it = Interpreter::new(&sdfg);
        it.set_symbol("M", m as i64)
            .set_symbol("K", k as i64)
            .set_symbol("N", n as i64);
        it.set_array("A", a.clone());
        it.set_array("B", bm.clone());
        it.set_array("C", vec![0.0; m * n]);
        it.run().unwrap();
        // Reference.
        let mut c_ref = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c_ref[i * n + j] += a[i * k + kk] * bm[kk * n + j];
                }
            }
        }
        assert_eq!(it.array("C"), c_ref.as_slice());
    }

    #[test]
    fn reduce_node_sum_over_axis() {
        let mut b = SdfgBuilder::new("red");
        b.symbol("N");
        b.array("A", &["N", "N"], DType::F64);
        b.array("out", &["N"], DType::F64);
        let st = b.state("main");
        b.reduce(
            st,
            "A",
            "0:N, 0:N",
            "out",
            "0:N",
            Wcr::Sum,
            Some(vec![1]),
            Some(0.0),
        );
        let sdfg = b.build().unwrap();
        let mut it = Interpreter::new(&sdfg);
        it.set_symbol("N", 3);
        it.set_array("A", (0..9).map(|x| x as f64).collect());
        it.set_array("out", vec![0.0; 3]);
        it.run().unwrap();
        assert_eq!(it.array("out"), &[3.0, 12.0, 21.0]); // row sums
    }

    #[test]
    fn fibonacci_consume_scope() {
        // Fig. 8: asynchronous Fibonacci without memoization.
        let mut sdfg = Sdfg::new("fib");
        sdfg.add_stream("S", DType::F64);
        sdfg.add_array("N", &["1"], DType::F64);
        sdfg.add_array("out", &["1"], DType::F64);
        let init = sdfg.add_state("init");
        let main = sdfg.add_state("main");
        sdfg.add_transition(init, main, InterstateEdge::always());
        // init: push N into S.
        {
            let st = sdfg.state_mut(init);
            let n = st.add_access("N");
            let s = st.add_access("S");
            st.add_plain_edge(n, s, Memlet::parse("N", "0"));
        }
        // main: consume S with P workers.
        {
            let st = sdfg.state_mut(main);
            let s_in = st.add_access("S");
            let (ce, cx) = st.add_consume(ConsumeScope {
                label: "fib".into(),
                pe_param: "p".into(),
                num_pes: 4.into(),
                element: "val".into(),
                condition: None,
                schedule: Schedule::CpuMulticore,
            });
            let t = st.add_tasklet(
                "fib",
                &["val"],
                &["res", "S_out"],
                "if val < 2:\n    res = val\nelse:\n    S_out.push(val - 1)\n    S_out.push(val - 2)\n    res = 0",
            );
            let s_push = st.add_access("S");
            let out = st.add_access("out");
            st.add_edge(
                s_in,
                None,
                ce,
                Some("IN_stream"),
                Memlet::parse("S", "0").dynamic(),
            );
            st.add_edge(
                ce,
                Some("OUT_stream"),
                t,
                Some("val"),
                Memlet::parse("S", "0").dynamic(),
            );
            st.add_edge(
                t,
                Some("res"),
                cx,
                Some("IN_out"),
                Memlet::parse("out", "0").with_wcr(Wcr::Sum),
            );
            st.add_edge(
                cx,
                Some("OUT_out"),
                out,
                None,
                Memlet::parse("out", "0").with_wcr(Wcr::Sum),
            );
            st.add_edge(
                t,
                Some("S_out"),
                s_push,
                None,
                Memlet::parse("S", "0").dynamic(),
            );
        }
        sdfg.validate().expect("valid fib sdfg");
        let mut it = Interpreter::new(&sdfg);
        it.set_array("N", vec![10.0]);
        it.set_array("out", vec![0.0]);
        it.run().unwrap();
        assert_eq!(it.array("out"), &[55.0]); // fib(10)
    }

    #[test]
    fn nested_sdfg_invocation() {
        // Inner SDFG doubles a 4-vector; outer invokes it per row.
        let mut inner_b = SdfgBuilder::new("double4");
        inner_b.array("X", &["4"], DType::F64);
        let ist = inner_b.state("s");
        inner_b.mapped_tasklet(
            ist,
            "d",
            &[("i", "0:4")],
            &[("x", "X", "i")],
            "o = x * 2",
            &[("o", "X", "i")],
        );
        let inner = inner_b.build().unwrap();

        let mut sdfg = Sdfg::new("outer");
        sdfg.add_array("A", &["2", "4"], DType::F64);
        let sid = sdfg.add_state("main");
        let st = sdfg.state_mut(sid);
        let a_r = st.add_access("A");
        let a_w = st.add_access("A");
        let (me, mx) = st.add_map(MapScope::new(
            "rows",
            vec!["r".into()],
            vec![SymRange::new(0, 2)],
        ));
        let nested = st.add_node(Node::NestedSdfg {
            sdfg: Box::new(inner),
            symbol_mapping: Default::default(),
            inputs: vec!["X".into()],
            outputs: vec!["X".into()],
        });
        st.add_edge(a_r, None, me, Some("IN_A"), Memlet::parse("A", "0:2, 0:4"));
        st.add_edge(
            me,
            Some("OUT_A"),
            nested,
            Some("X"),
            Memlet::parse("A", "r, 0:4"),
        );
        st.add_edge(
            nested,
            Some("X"),
            mx,
            Some("IN_A"),
            Memlet::parse("A", "r, 0:4"),
        );
        st.add_edge(mx, Some("OUT_A"), a_w, None, Memlet::parse("A", "0:2, 0:4"));
        sdfg.validate().expect("valid");
        let mut it = Interpreter::new(&sdfg);
        it.set_array("A", (0..8).map(|x| x as f64).collect());
        it.run().unwrap();
        let expect: Vec<f64> = (0..8).map(|x| 2.0 * x as f64).collect();
        assert_eq!(it.array("A"), expect.as_slice());
    }

    #[test]
    fn transients_are_allocated() {
        let mut b = SdfgBuilder::new("tr");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        b.transient("tmp", &["N"], DType::F64);
        b.array("B", &["N"], DType::F64);
        let s1 = b.state("s1");
        b.mapped_tasklet(
            s1,
            "t1",
            &[("i", "0:N")],
            &[("a", "A", "i")],
            "o = a + 1",
            &[("o", "tmp", "i")],
        );
        let s2 = b.state("s2");
        b.mapped_tasklet(
            s2,
            "t2",
            &[("i", "0:N")],
            &[("a", "tmp", "i")],
            "o = a * 3",
            &[("o", "B", "i")],
        );
        b.transition(s1, s2);
        let sdfg = b.build().unwrap();
        let mut it = Interpreter::new(&sdfg);
        it.set_symbol("N", 3);
        it.set_array("A", vec![0.0, 1.0, 2.0]);
        it.set_array("B", vec![0.0; 3]);
        it.run().unwrap();
        assert_eq!(it.array("B"), &[3.0, 6.0, 9.0]);
    }

    #[test]
    fn missing_array_reported() {
        let mut b = SdfgBuilder::new("m");
        b.array("A", &["4"], DType::F64);
        let _ = b.state("s");
        let sdfg = b.build().unwrap();
        let mut it = Interpreter::new(&sdfg);
        let e = it.run().unwrap_err();
        assert!(matches!(e, InterpError::MissingArray(n) if n == "A"));
    }

    #[test]
    fn size_mismatch_reported() {
        let mut b = SdfgBuilder::new("m");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        let _ = b.state("s");
        let sdfg = b.build().unwrap();
        let mut it = Interpreter::new(&sdfg);
        it.set_symbol("N", 8);
        it.set_array("A", vec![0.0; 4]);
        let e = it.run().unwrap_err();
        assert!(matches!(
            e,
            InterpError::SizeMismatch {
                expected: 8,
                got: 4,
                ..
            }
        ));
    }

    #[test]
    fn copy_between_arrays() {
        let mut b = SdfgBuilder::new("cp");
        b.array("A", &["4", "4"], DType::F64);
        b.array("B", &["2", "2"], DType::F64);
        let st = b.state("s");
        b.copy(st, "A", "1:3, 1:3", "B", "0:2, 0:2");
        let sdfg = b.build().unwrap();
        let mut it = Interpreter::new(&sdfg);
        it.set_array("A", (0..16).map(|x| x as f64).collect());
        it.set_array("B", vec![0.0; 4]);
        it.run().unwrap();
        assert_eq!(it.array("B"), &[5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn triangular_map_range() {
        // Inner range depends on the outer parameter.
        let mut b = SdfgBuilder::new("tri");
        b.symbol("N");
        b.array("A", &["N", "N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "t",
            &[("i", "0:N"), ("j", "0:i + 1")],
            &[("a", "A", "i, j")],
            "o = a + 1",
            &[("o", "A", "i, j")],
        );
        let sdfg = b.build().unwrap();
        let mut it = Interpreter::new(&sdfg);
        it.set_symbol("N", 3);
        it.set_array("A", vec![0.0; 9]);
        it.run().unwrap();
        // Lower triangle incremented.
        assert_eq!(
            it.array("A"),
            &[1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0]
        );
    }
}

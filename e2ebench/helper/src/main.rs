//! In-process half of the end-to-end benchmark (`e2ebench/run.py` drives
//! it). Every subcommand prints one JSON object on stdout.
//!
//! * `oracle --reps N` — the reference answers for the `exp all` output
//!   checks, recomputed N times on fresh store-less engines (the
//!   repetitions time the set-up).
//! * `pass --cache-dir DIR [--reread]` — one `exp all` pass at one job,
//!   made query by query in dependency order so each timed call does
//!   one layer's work; reports layer times, engine counters and each
//!   experiment's output line count.
//! * `static --seed S --seconds T --setup-reps N [--trace]` — the
//!   static-prediction workload: compile, classify and predict suite
//!   programs in a seeded shuffled order, checking every request.

mod loops;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use bpfree_bench::registry;
use bpfree_bench::sink::VecSink;
use bpfree_core::{BranchClass, BranchClassifier, CombinedPredictor, Direction, HeuristicKind};
use bpfree_engine::{Engine, EngineConfig};
use bpfree_lang::Options;
use bpfree_suite::Benchmark;

/// The three option sets every suite program is compiled under: `-O`,
/// no-inline and `-O0`.
const OPTIONS: [fn() -> Options; 3] = [Options::default, Options::no_inline, Options::o0];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let number = |name: &str, default: u64| -> u64 {
        value(name).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| die(&format!("{name} needs a whole number")))
        })
    };
    let out = match args.first().map(String::as_str) {
        Some("oracle") => oracle(number("--reps", 1).max(1) as usize),
        Some("pass") => {
            let dir = value("--cache-dir").unwrap_or_else(|| die("pass needs --cache-dir"));
            pass(PathBuf::from(dir), flag("--reread"))
        }
        Some("static") => static_predict(
            number("--seed", 0),
            number("--seconds", 10) as f64,
            number("--setup-reps", 1).max(1) as usize,
            flag("--trace"),
        ),
        _ => die("usage: e2ebench-helper oracle|pass|static [flags]"),
    };
    println!("{out}");
}

fn die(msg: &str) -> ! {
    eprintln!("e2ebench-helper: {msg}");
    std::process::exit(2)
}

/// Seconds `f` takes, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let v = f();
    (start.elapsed().as_secs_f64(), v)
}

// ---------------------------------------------------------------- JSON

/// A JSON value, written by hand: the helper has no serialisation
/// dependency.
enum J {
    Num(f64),
    Int(i64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl std::fmt::Display for J {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            J::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            J::Num(_) => write!(f, "null"),
            J::Int(i) => write!(f, "{i}"),
            J::Str(s) => write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
            J::Arr(xs) => {
                write!(f, "[")?;
                for (i, x) in xs.iter().enumerate() {
                    write!(f, "{}{x}", if i > 0 { "," } else { "" })?;
                }
                write!(f, "]")
            }
            J::Obj(kv) => {
                write!(f, "{{")?;
                for (i, (k, v)) in kv.iter().enumerate() {
                    write!(f, "{}\"{k}\":{v}", if i > 0 { "," } else { "" })?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn obj<const N: usize>(kv: [(&str, J); N]) -> J {
    J::Obj(kv.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn nums(xs: &[f64]) -> J {
    J::Arr(xs.iter().map(|&x| J::Num(x)).collect())
}

fn map(m: BTreeMap<String, f64>) -> J {
    J::Obj(m.into_iter().map(|(k, v)| (k, J::Num(v))).collect())
}

// -------------------------------------------------------------- oracle

/// Dynamic branches, misses and perfect-predictor misses of one branch
/// class, recounted from an edge profile.
#[derive(Default, Clone, Copy)]
struct Tally {
    dynamic: u64,
    misses: u64,
    perfect_misses: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.dynamic += other.dynamic;
        self.misses += other.misses;
        self.perfect_misses += other.perfect_misses;
    }

    fn json(self) -> J {
        obj([
            ("dynamic", J::Int(self.dynamic as i64)),
            ("misses", J::Int(self.misses as i64)),
            ("perfect_misses", J::Int(self.perfect_misses as i64)),
        ])
    }
}

/// The reference answers for every suite benchmark: its reference-input
/// exit value under each option set, and the combined predictor's
/// misses recounted from `Engine::run`'s edge profile. Recomputed on a
/// fresh store-less engine per repetition.
fn oracle(reps: usize) -> J {
    let mut times = Vec::new();
    let mut answer = J::Obj(Vec::new());
    for _ in 0..reps {
        let (t, a) = timed(|| {
            let engine = Engine::new(EngineConfig::no_cache());
            J::Obj(
                bpfree_suite::all()
                    .iter()
                    .map(|b| (b.name.to_string(), oracle_bench(&engine, b)))
                    .collect(),
            )
        });
        times.push(t);
        answer = a;
    }
    obj([("reps_s", nums(&times)), ("benchmarks", answer)])
}

fn oracle_bench(engine: &Engine, bench: &Benchmark) -> J {
    let exits: Vec<J> = OPTIONS
        .iter()
        .map(|opt| J::Int(engine.run(bench, opt(), 0).result.exit))
        .collect();
    let opt = Options::default();
    let program = engine.program(bench, opt);
    let classifier = engine.classifier(bench, opt);
    let predictions =
        CombinedPredictor::new(&program, &classifier, HeuristicKind::paper_order()).predictions();
    let run = engine.run(bench, opt, 0);
    let (mut looped, mut nonloop) = (Tally::default(), Tally::default());
    for (branch, counts) in run.profile.iter() {
        let missed = match predictions.get(branch) {
            Some(Direction::Taken) => counts.fallthru,
            Some(Direction::FallThru) => counts.taken,
            None => counts.taken + counts.fallthru,
        };
        let t = Tally {
            dynamic: counts.taken + counts.fallthru,
            misses: missed,
            perfect_misses: counts.taken.min(counts.fallthru),
        };
        match classifier.class(branch) {
            BranchClass::Loop => looped.add(t),
            BranchClass::NonLoop => nonloop.add(t),
        }
    }
    let mut all = looped;
    all.add(nonloop);
    obj([
        ("exit", J::Arr(exits)),
        ("dynamic_branches", J::Int(all.dynamic as i64)),
        (
            "heuristic",
            obj([
                ("loop_branches", looped.json()),
                ("nonloop", nonloop.json()),
                ("all", all.json()),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------- pass

/// The engine's six miss counters, by name.
fn counters(engine: &Engine) -> J {
    let named = [
        ("simulations", engine.simulations()),
        ("analyses", engine.analyses()),
        ("orderings", engine.orderings()),
        ("compiles", engine.compiles()),
        ("decodes", engine.decodes()),
        ("trace_records", engine.trace_records()),
    ];
    J::Obj(
        named
            .into_iter()
            .map(|(n, v)| (n.to_string(), J::Int(v as i64)))
            .collect(),
    )
}

/// Times one engine query and charges it to `layer` if the engine's
/// miss counter `counter` moved during the call (the query computed),
/// or to `cache.read_s` if it did not (the store or the memo served it).
fn charge<T>(
    engine: &Engine,
    layers: &mut BTreeMap<String, f64>,
    counter: fn(&Engine) -> u64,
    layer: &str,
    query: impl FnOnce() -> T,
) -> (bool, f64, T) {
    let before = counter(engine);
    let (t, v) = timed(query);
    let computed = counter(engine) != before;
    let name = if computed { layer } else { "cache.read_s" };
    *layers.entry(name.to_string()).or_default() += t;
    (computed, t, v)
}

/// Moves `part` seconds (clamped to the charged total) from layer
/// `from` to layer `to`: how a side measurement splits one query.
fn split(layers: &mut BTreeMap<String, f64>, from: &str, to: &str, part: f64, total: f64) {
    let part = part.min(total);
    *layers.get_mut(from).expect("charged before splitting") -= part;
    *layers.entry(to.to_string()).or_default() += part;
}

/// Every query an `exp all` pass makes, in dependency order, so the
/// experiments that follow find all artifacts in memory. Returns the
/// dynamic instructions interpreted and the compiled programs' IR size
/// and branch count.
fn query_all(engine: &Engine, layers: &mut BTreeMap<String, f64>) -> [u64; 3] {
    let suite = bpfree_suite::all();
    let (mut dyn_instrs, mut ir_instrs, mut branches) = (0u64, 0u64, 0u64);
    // Datasets are never stored: generation always computes.
    for b in &suite {
        let (t, _) = timed(|| engine.datasets(b));
        *layers.entry("suite.datasets_s".into()).or_default() += t;
    }
    let mut compiled = Vec::new();
    for b in &suite {
        for opt in OPTIONS {
            let (computed, t, program) =
                charge(engine, layers, Engine::compiles, "lang.compile_s", || {
                    engine.program(b, opt())
                });
            if computed {
                // Split the front end by a separate parse of the same
                // source.
                let (p, ast) = timed(|| bpfree_lang::parse(b.source));
                black_box(ast.is_ok());
                split(layers, "lang.compile_s", "lang.parse_s", p, t);
                ir_instrs += program.static_size();
                compiled.push((b, opt));
            }
        }
    }
    for b in &suite {
        for opt in OPTIONS {
            let (computed, t, p) =
                charge(engine, layers, Engine::analyses, "core.predict_s", || {
                    engine.predictions(b, opt())
                });
            if computed {
                // Likewise split classification from the heuristics.
                let program = engine.program(b, opt());
                let (c, cls) = timed(|| BranchClassifier::analyze(&program));
                black_box(cls);
                split(layers, "core.predict_s", "core.classify_s", c, t);
                branches += p.classifier.branch_table().len() as u64;
            }
        }
    }
    // Decoding only feeds the interpreter: a pass that compiled a
    // program will also simulate it.
    for (b, opt) in &compiled {
        charge(engine, layers, Engine::decodes, "sim.decode_s", || {
            engine.decoded(b, opt())
        });
    }
    let traced: std::collections::BTreeSet<&str> = registry::all()
        .iter()
        .flat_map(|e| e.traced().iter().copied())
        .collect();
    for b in suite.iter().filter(|b| traced.contains(b.name)) {
        let (computed, _, _) = charge(engine, layers, Engine::trace_records, "sim.trace_s", || {
            engine.trace(b, Options::default(), 0)
        });
        if computed {
            dyn_instrs += engine.run(b, Options::default(), 0).result.instructions;
        }
    }
    for b in &suite {
        let datasets = engine.datasets(b).len();
        let runs = OPTIONS
            .iter()
            .map(|opt| (opt(), 0))
            .chain((1..datasets).map(|i| (Options::default(), i)));
        for (opt, index) in runs {
            let (computed, _, bundle) =
                charge(engine, layers, Engine::simulations, "sim.run_s", || {
                    engine.run(b, opt, index)
                });
            if computed {
                dyn_instrs += bundle.result.instructions;
            }
        }
    }
    let roster = bpfree_bench::ordering_roster();
    let refs: Vec<&Benchmark> = roster.iter().collect();
    charge(
        engine,
        layers,
        Engine::orderings,
        "core.ordering_study_s",
        || engine.ordering_study(&refs, Options::default()),
    );
    [dyn_instrs, ir_instrs, branches]
}

/// One `exp all` pass over the store at `dir`, traced layer by layer.
/// With `reread`, a second, fresh engine then makes the same queries
/// against the store the pass filled, timing the store's read path.
fn pass(dir: PathBuf, reread: bool) -> J {
    let config = EngineConfig {
        use_cache: true,
        cache_dir: dir,
        verbose: false,
        ..EngineConfig::no_cache()
    };
    let engine = Engine::new(config.clone());
    let mut layers = BTreeMap::new();
    let start = Instant::now();
    let [dyn_instrs, ir_instrs, branches] = query_all(&engine, &mut layers);
    let mut lines = Vec::new();
    for exp in registry::all() {
        let mut sink = VecSink::new();
        let (t, r) = timed(|| exp.run(&engine, &mut sink));
        if let Err(e) = r {
            die(&format!("experiment {} failed: {e}", exp.name()));
        }
        layers.insert(format!("bench.{}_s", exp.name()), t);
        let out = sink.take();
        let n = out.iter().filter(|&&c| c == b'\n').count();
        lines.push(J::Arr(vec![J::Str(exp.name().into()), J::Int(n as i64)]));
    }
    let wall = start.elapsed().as_secs_f64();
    let after = counters(&engine);
    let reread_s = if reread {
        let fresh = Engine::new(config);
        let mut read = BTreeMap::new();
        let (t, _) = timed(|| query_all(&fresh, &mut read));
        J::Num(t)
    } else {
        J::Num(0.0)
    };
    obj([
        ("wall_s", J::Num(wall)),
        ("layers", map(layers)),
        ("counters", after),
        ("reread_s", reread_s),
        ("dyn_instrs", J::Int(dyn_instrs as i64)),
        ("ir_instrs", J::Int(ir_instrs as i64)),
        ("branches", J::Int(branches as i64)),
        ("lines", J::Arr(lines)),
    ])
}

// -------------------------------------------------------------- static

/// SplitMix64: the request shuffle's generator, so the same `--seed`
/// gives the same request order on every platform.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// User + system CPU time this process has used, from `/proc/self/stat`
/// (clock ticks of 1/100 s). Read once per phase, not per sweep: one
/// sweep is only a few ticks long.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

struct Request {
    source: &'static str,
    options: Options,
    expected: Vec<loops::Expected>,
}

/// What one request produced: the program, its classifier and the
/// combined predictor's predictions.
type Answer = (
    bpfree_ir::Program,
    BranchClassifier,
    bpfree_core::Predictions,
);

/// One request, untraced: the predictor as a compiler would embed it.
fn serve(r: &Request) -> Answer {
    let program = bpfree_lang::compile_with(r.source, r.options)
        .unwrap_or_else(|e| die(&format!("suite program fails to compile: {e}")));
    let classifier = BranchClassifier::analyze(&program);
    let predictions =
        CombinedPredictor::new(&program, &classifier, HeuristicKind::paper_order()).predictions();
    (program, classifier, predictions)
}

/// One request with each layer timed into `layers`. The front end is
/// split by a separate parse of the same source.
fn serve_traced(r: &Request, layers: &mut BTreeMap<String, f64>) -> Answer {
    let mut add = |k: &str, t: f64| *layers.entry(k.to_string()).or_default() += t;
    let (p, ast) = timed(|| bpfree_lang::parse(r.source));
    black_box(ast.is_ok());
    let (c, program) = timed(|| {
        bpfree_lang::compile_with(r.source, r.options)
            .unwrap_or_else(|e| die(&format!("suite program fails to compile: {e}")))
    });
    add("lang.parse_s", p.min(c));
    add("lang.compile_s", c - p.min(c));
    let (t, classifier) = timed(|| BranchClassifier::analyze(&program));
    add("core.classify_s", t);
    let (t, predictions) = timed(|| {
        CombinedPredictor::new(&program, &classifier, HeuristicKind::paper_order()).predictions()
    });
    add("core.predict_s", t);
    add("lang.ir_instrs", program.static_size() as f64);
    add("core.branches", classifier.branch_table().len() as f64);
    (program, classifier, predictions)
}

/// Does one request's answer agree with the independent classification?
fn check(r: &Request, (program, classifier, predictions): &Answer) -> bool {
    let branches = program.branches();
    branches.len() == r.expected.len()
        && branches.iter().zip(&r.expected).all(|(&b, e)| {
            let is_loop = classifier.class(b) == BranchClass::Loop;
            b == e.branch
                && is_loop == e.is_loop
                && (!is_loop || predictions.get(b).is_some_and(|d| e.allows(d)))
        })
}

/// Builds the request set: every suite program under every option set,
/// each with its independently computed expected classification.
fn requests() -> Vec<Request> {
    let mut out = Vec::new();
    for b in bpfree_suite::all() {
        for opt in OPTIONS {
            let program = bpfree_lang::compile_with(b.source, opt())
                .unwrap_or_else(|e| die(&format!("{} fails to compile: {e}", b.name)));
            out.push(Request {
                source: b.source,
                options: opt(),
                expected: loops::expected(&program),
            });
        }
    }
    out
}

fn static_predict(seed: u64, seconds: f64, setup_reps: usize, trace: bool) -> J {
    let mut setup = Vec::new();
    let mut reqs = Vec::new();
    for _ in 0..setup_reps {
        let (t, r) = timed(requests);
        setup.push(t);
        reqs = r;
    }
    let mut rng = SplitMix(seed);
    let mut order: Vec<usize> = (0..reqs.len()).collect();
    let (mut walls, mut latencies) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        rng.shuffle(&mut order);
        let mut answers = Vec::with_capacity(order.len());
        let sweep = Instant::now();
        for &i in &order {
            let t = Instant::now();
            let a = serve(&reqs[i]);
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            answers.push(a);
        }
        walls.push(sweep.elapsed().as_secs_f64());
        for (&i, a) in order.iter().zip(&answers) {
            attempted += 1;
            failed += u64::from(!check(&reqs[i], a));
        }
    }
    // The checks above run on the same thread but outside the sweep
    // clocks; their CPU time is a small share of the phase's.
    let cpu_per_sweep = (process_cpu_s() - cpu0) / walls.len() as f64;
    let mut fields = vec![
        ("setup_s".to_string(), nums(&setup)),
        ("sweep_wall_s".to_string(), nums(&walls)),
        ("sweep_cpu_s".to_string(), J::Num(cpu_per_sweep)),
        ("latency_ms".to_string(), nums(&latencies)),
        ("attempted".to_string(), J::Int(attempted as i64)),
        ("failed".to_string(), J::Int(failed as i64)),
    ];
    if trace {
        // The traced sweeps: same requests, each layer timed. Layer
        // times are means per sweep, like the untraced sweep wall.
        let mut layers = BTreeMap::new();
        let mut traced_walls = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            rng.shuffle(&mut order);
            let sweep = Instant::now();
            let answers: Vec<Answer> = order
                .iter()
                .map(|&i| serve_traced(&reqs[i], &mut layers))
                .collect();
            traced_walls.push(sweep.elapsed().as_secs_f64());
            black_box(answers);
        }
        let n = traced_walls.len() as f64;
        for v in layers.values_mut() {
            *v /= n;
        }
        fields.push(("layers".into(), map(layers)));
        fields.push(("traced_sweep_wall_s".into(), nums(&traced_walls)));
    }
    J::Obj(fields)
}

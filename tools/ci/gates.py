#!/usr/bin/env python3
"""Checked-in CI gates; each also runs locally from any directory.

  python3 tools/ci/gates.py perf bench_micro_sim.json
      The perf-smoke gates over a `bench_micro_sim --benchmark_format=json`
      run, in order: benchmark registration, pooled wall time against
      BENCH_PR3.json (at most PERF_GATE_FACTOR slower), heap allocations
      per pooled run (at most ALLOCS_PER_RUN_CEILING) and the pinned
      simulator events per run.  Stops at the first gate that fails.

  python3 tools/ci/gates.py reachability
      Two legs.  Headers: fails when a src/**/*.hpp header has no includer
      under src/, bench/, examples/, tools/ or perfbench/; the header's own
      .cpp does not count.  Functions: builds the tree (tests and tools
      off) and perfbench/ in a temporary directory at -O0 with one section
      per function, links with --gc-sections, and fails, by demangled
      name, on every out-of-line function in namespace aedbmls that a
      libaedbmls_*.a defines and no executable under bench/ or examples/,
      nor perfbench, contains; TEST_SEAMS lists the exceptions.  Both
      report library surface that only tests reach.  Functions defined
      inline in a header are outside the function leg's view: a library
      object holds one only when library code calls it.  The leg refuses
      to run without the google-benchmark micro benches (libbenchmark-dev),
      which are consumers too.

  python3 tools/ci/gates.py cli build
      The command-line surface of the binaries under build/bench (bar the
      two google-benchmark micro benches) and build/examples: an
      undeclared flag or a stray argument exits 2 naming it before any
      output, so do each removed spelling of a setting and a malformed
      operand, and every binary accepts every flag it declares.  A bad
      campaign option or plan exits 2 after the header, and two campaigns
      at one scale leave two figure CSVs.

Exit status: 0 when every gate passes, non-zero naming what failed.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# Allowed pooled wall-time slowdown over the machine-calibrated baseline
# before the perf gate fails.  Generous, because shared CI runners are
# noisy; change it here when a runner generation changes.
PERF_GATE_FACTOR = 1.30
# Hard ceiling on heap allocations per pooled scenario run (see
# gate_allocations).
ALLOCS_PER_RUN_CEILING = 16


def load_bench(path):
    return {b['name']: b for b in json.load(open(path))['benchmarks']}


def gate_registration(path):
    # Registration errors surface as a non-zero exit or empty output;
    # validate the JSON shape, not the numbers.
    data = json.load(open(path))
    names = [b['name'] for b in data['benchmarks']]
    assert any('BM_FullScenario/' in n for n in names), names
    assert any('BM_FullScenarioPooled/' in n for n in names), names
    print(f'{len(names)} benchmarks registered and ran')


def gate_wall_time(path):
    # BENCH_PR3.json was recorded on a different (1-core) box, so absolute
    # times do not transfer: calibrate with the median fresh-path ratio
    # from the same bench run (BM_FullScenario / after_fresh_ms), then gate
    # the pooled path at calibrated baseline x factor.  This catches the
    # pooling machinery regressing relative to the recorded split while
    # staying insensitive to how fast the runner happens to be.
    factor = PERF_GATE_FACTOR
    baseline = json.load(open(ROOT / 'BENCH_PR3.json'))['per_run_scenario']
    bench = load_bench(path)

    def ms(name):
        entry = bench.get(name)
        assert entry is not None, f'{name} missing from bench output'
        assert entry.get('time_unit') == 'ms', entry
        return entry['real_time']

    table2 = ('d100', 'd200', 'd300')
    speed = statistics.median(
        ms(f'BM_FullScenario/{d[1:]}') / baseline[d]['after_fresh_ms']
        for d in table2)
    print(f'runner speed vs baseline box (fresh path, median): {speed:.2f}x')
    failures = []
    for density in table2:
        name = f'BM_FullScenarioPooled/{density[1:]}'
        now = ms(name)
        limit = baseline[density]['after_pooled_ms'] * speed * factor
        verdict = 'FAIL' if now > limit else 'ok'
        print(f'{name}: {now:8.2f} ms  (calibrated limit '
              f'{limit:.2f} ms)  {verdict}')
        if now > limit:
            failures.append(name)
    if failures:
        sys.exit(f'wall-time regression >{factor - 1:.0%} vs '
                 f'BENCH_PR3.json in: {", ".join(failures)}')
    print('pooled scenarios within the regression budget')


def gate_allocations(path):
    # Hard ceiling on heap allocations per pooled scenario run.  The SoA
    # hot path holds this at ~0 across every density (BENCH_PR6.json); the
    # small budget absorbs benchmark-harness noise between iterations
    # without letting per-run container churn creep back in.  Allocation
    # counts are machine-independent, so no calibration is needed.
    ceiling = ALLOCS_PER_RUN_CEILING
    bench = load_bench(path)
    failures = []
    names = [f'BM_FullScenarioPooled/{density}' for density in (100, 200, 300)]
    for name in names + ['BM_ScreenScenarioPooled']:
        entry = bench.get(name)
        assert entry is not None, f'{name} missing from bench output'
        allocs = entry.get('allocs_per_run')
        assert allocs is not None, f'{name} lost its allocs_per_run counter'
        verdict = 'FAIL' if allocs > ceiling else 'ok'
        print(f'{name}: {allocs:8.3f} allocs/run  (ceiling {ceiling:g})  '
              f'{verdict}')
        if allocs > ceiling:
            failures.append(name)
    if failures:
        sys.exit('pooled steady-state allocation regression in: '
                 + ', '.join(failures))
    print('pooled scenario runs are allocation-free (within budget)')


def gate_events(path):
    # Exact, machine-independent work counts: every run of a paper scenario
    # (seed 1, network 0, the bench's fixed AEDB parameters) executes the
    # same events, fresh or pooled.  Pinned at the commit before the batched
    # PHY fan-out, which keeps one event per signal arrival and per signal
    # end; any drift means the simulated event order changed.  No
    # calibration and no tolerance.  The sparse-wide-shaped run (50 nodes
    # on 1000 x 1000 m, where most links lie beyond the interference floor
    # and the channel's range cull skips them) was pinned at the commit
    # before that cull.  The screen-tier-shaped run (d200 truncated 2.25 s
    # after the broadcast, infeasibility stop at 0.5 s) was pinned at the
    # commit before the beacon warm-up was restored instead of simulated:
    # restored events still count, so the pin holds across that change.
    table2 = {100: 15388, 200: 60598, 300: 136627}
    pinned = {f'{kind}/{density}': expected
              for kind in ('BM_FullScenario', 'BM_FullScenarioPooled')
              for density, expected in table2.items()}
    pinned['BM_SparseWidePooled'] = 27050
    pinned['BM_ScreenScenarioPooled'] = 16498
    bench = load_bench(path)
    failures = []
    for name, expected in pinned.items():
        entry = bench.get(name)
        assert entry is not None, f'{name} missing from bench output'
        events = entry.get('events_per_run')
        assert events is not None, f'{name} lost its events_per_run counter'
        verdict = 'ok' if events == expected else 'FAIL'
        print(f'{name}: {events:10.1f} events/run  (pinned {expected})  '
              f'{verdict}')
        if events != expected:
            failures.append(name)
    if failures:
        sys.exit('simulated event count drifted in: ' + ', '.join(failures))
    print('events per scenario run match the pinned counts')


def perf(path):
    for gate in (gate_registration, gate_wall_time, gate_allocations,
                 gate_events):
        print(f'== {gate.__name__}')
        gate(path)


INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
CONSUMERS = ('src', 'bench', 'examples', 'tools', 'perfbench')


def reachability():
    header_reachability()
    function_reachability()


def header_reachability():
    reached = set()
    for top in CONSUMERS:
        for path in sorted((ROOT / top).rglob('*')):
            hidden = any(part.startswith('.')
                         for part in path.relative_to(ROOT).parts)
            if hidden or path.suffix not in ('.hpp', '.cpp') or not path.is_file():
                continue
            own_header = path.with_suffix('.hpp') if path.suffix == '.cpp' else None
            for name in INCLUDE.findall(path.read_text(errors='replace')):
                for target in (ROOT / 'src' / name, path.parent / name):
                    target = target.resolve()
                    if target != own_header and target.is_file():
                        reached.add(target)
    unreached = [h for h in sorted((ROOT / 'src').rglob('*.hpp'))
                 if h.resolve() not in reached]
    for header in unreached:
        print(f'{header.relative_to(ROOT)}: no includer under '
              f'{", ".join(top + "/" for top in CONSUMERS)} '
              f'besides its own .cpp')
    if unreached:
        sys.exit(f'{len(unreached)} src/ header(s) that only tests reach')
    print('every src/ header has an includer outside tests/')


# The function leg's build: -O0 so that no call is inlined away, and one
# section per function so that --gc-sections drops each function no
# reachable code calls.  NDEBUG as in Release, so assert-only calls do not
# count as reached.
FUNCTION_GATE_CMAKE = [
    '-DCMAKE_BUILD_TYPE=Debug',
    '-DCMAKE_CXX_FLAGS_DEBUG=-O0 -DNDEBUG -ffunction-sections -fdata-sections',
    '-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections',
]
# Mangled names in namespace aedbmls (members of const objects included),
# so that std:: instantiations over the project's types are not reported.
AEDBMLS_SYMBOL = re.compile(r'_ZN7aedbmls|_ZNK7aedbmls')
MICRO_BENCHES = ('bench_micro_sim', 'bench_micro_moo')
# Functions only tests reach, kept on purpose: demangled-name prefix ->
# reason.  An entry that matches nothing fails the gate, so it goes when
# its function gains a caller or is deleted.
TEST_SEAMS = {
    'aedbmls::fault::ScopedPlan::':
        'installs a fault plan for one test and puts the previous one back',
    'aedbmls::fault::clear(':
        'uninstalls the fault plan between tests',
    'aedbmls::fault::hits(':
        "a site's trigger count, to become the fault.<site>.hits counter",
    'aedbmls::set_log_level(':
        'lets the logging tests raise and lower the threshold',
}


def defined_functions(path):
    """Mangled names of the text symbols `path` defines in aedbmls."""
    listing = subprocess.run(['nm', '--defined-only', '--format=posix',
                              str(path)], check=True, capture_output=True,
                             text=True).stdout
    names = set()
    for line in listing.splitlines():
        fields = line.split()
        if (len(fields) >= 2 and fields[1] in 'TtWw'
                and AEDBMLS_SYMBOL.match(fields[0])):
            names.add(fields[0])
    return names


def demangle(names):
    out = subprocess.run(['c++filt'], input='\n'.join(names), check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()


def function_reachability():
    with tempfile.TemporaryDirectory(prefix='aedb-reach-') as work:
        tree, bench = Path(work, 'tree'), Path(work, 'perfbench')
        for source, build, extra in (
                (ROOT, tree, ['-DAEDBMLS_BUILD_TESTS=OFF',
                              '-DAEDBMLS_BUILD_TOOLS=OFF']),
                (ROOT / 'perfbench', bench, [])):
            subprocess.run(['cmake', '-S', str(source), '-B', str(build)]
                           + FUNCTION_GATE_CMAKE + extra, check=True,
                           stdout=subprocess.DEVNULL)
            subprocess.run(['cmake', '--build', str(build), '--parallel',
                            str(os.cpu_count() or 1)], check=True,
                           stdout=subprocess.DEVNULL)
        missing = [name for name in MICRO_BENCHES
                   if not (tree / 'bench' / name).is_file()]
        if missing:
            sys.exit(f'{", ".join(missing)} not built: the function leg '
                     'needs google-benchmark (libbenchmark-dev), whose '
                     'micro benches are consumers too')
        libraries = sorted((tree / 'src').rglob('libaedbmls_*.a'))
        binaries = [path for top in ('bench', 'examples')
                    for path in sorted((tree / top).iterdir())
                    if path.is_file() and os.access(path, os.X_OK)]
        binaries.append(bench / 'perfbench')
        defined = {}
        for library in libraries:
            for name in defined_functions(library):
                defined.setdefault(name, library.name)
        reached = set()
        for binary in binaries:
            reached |= defined_functions(binary)
        unreached = sorted(set(defined) - reached)
        print(f'{len(defined)} aedbmls functions in {len(libraries)} '
              f'libraries, {len(binaries)} consuming binaries')
    by_name = {}
    for mangled, name in zip(unreached, demangle(unreached)):
        by_name.setdefault(name, defined[mangled])
    failures, used_seams = 0, set()
    for name, library in sorted(by_name.items()):
        seam = next((seam for seam in TEST_SEAMS if name.startswith(seam)),
                    None)
        if seam is None:
            failures += 1
            print(f'{library}: {name}: in no bench, example or perfbench')
        else:
            used_seams.add(seam)
            print(f'{library}: {name}: test seam ({TEST_SEAMS[seam]})')
    stale = sorted(set(TEST_SEAMS) - used_seams)
    for seam in stale:
        print(f'TEST_SEAMS entry {seam!r} matches no unreached function')
    if failures or stale:
        sys.exit(f'{failures} src/ function(s) that only tests reach, '
                 f'{len(stale)} stale TEST_SEAMS entr(ies)')
    print(f'every src/ function is in a shipped binary, bar '
          f'{len(by_name)} test seam function(s)')


# One small operand per flag name (None: a bare flag), for the leg that
# runs each binary with every flag it declares.  A declared flag missing
# here fails the gate, so a new flag gets a value.
TINY_OPERANDS = {
    # kScaleFlags: every bench; --list-scenarios makes it exit 0 at once
    'scale': 'smoke', 'networks': '1', 'runs': '1', 'evals': '8',
    'sa-samples': '65', 'seed': '1', 'scenarios': 'd100',
    'fidelity': 'full', 'list-scenarios': None, 'list-algorithms': None,
    # campaign_flags() and kAlgorithmFlags: the campaign benches
    'shard': '0/2', 'shard-dir': 'shards', 'merge': 'shards',
    'workers': '1', 'cache-dir': 'results', 'no-cache': None,
    'progress': '1', 'telemetry-out': 'run.telemetry',
    'front-out': 'fronts', 'fault-plan': '', 'algorithms': 'Random',
    # bench_fidelity_screening
    'bench-seeds': '1', 'json': 'screening.json',
    # the examples, which run for real at these sizes
    'scenario': 'd100', 'network': '0', 'border': '-86', 'margin': '1',
    'neighbors': '8', 'min-delay': '0.1', 'max-delay': '0.5',
    'populations': '1', 'threads': '2', 'reset': '4', 'alpha': '0.2',
    'samples': '65', 'nodes': '6', 'area': '200', 'static': None,
}
# The variables that once spelled a setting, and the flag each names.
REMOVED_VARIABLES = {
    'AEDB_SCALE': '--scale', 'AEDB_SCENARIO': '--scenarios',
    'AEDB_FIDELITY': '--fidelity', 'AEDB_FAULT_PLAN': '--fault-plan',
}


def cli(build):
    # The binaries run in a scratch directory, so whatever one writes goes.
    with tempfile.TemporaryDirectory(prefix='aedb-cli-gate-') as workdir:
        cli_checks(Path(build).resolve(), workdir)


def cli_checks(build, workdir):
    env = {k: v for k, v in os.environ.items() if k not in REMOVED_VARIABLES}
    failures = []

    def run(command, timeout=30, **variables):
        # A binary that ignores its input may run a whole campaign: stop it.
        try:
            return subprocess.run([str(part) for part in command],
                                  cwd=workdir, env=dict(env, **variables),
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return subprocess.CompletedProcess(
                command, 'timeout', '', f'still running after {timeout} s')

    def refused(command, *needles, header=False, **variables):
        # Exit 2, nothing on stdout, and every needle on stderr.  With
        # `header`, stdout may hold the header a campaign bench prints
        # before it checks its campaign options and plan.
        result = run(command, **variables)
        ok = (result.returncode == 2 and (header or not result.stdout)
              and all(needle in result.stderr for needle in needles))
        shown = ' '.join(f'{k}={v}' for k, v in variables.items())
        shown += ' '.join(str(part) for part in [''] + command)
        print(f'{"ok  " if ok else "FAIL"} {shown.strip()}: exit '
              f'{result.returncode}: {result.stderr.strip()[:120]}')
        if not ok:
            failures.append(shown.strip())
        return result.stderr

    benches = sorted(path for path in (build / 'bench').glob('bench_*')
                     if os.access(path, os.X_OK) and path.is_file()
                     and not path.name.startswith('bench_micro_'))
    examples = sorted(path for path in (build / 'examples').iterdir()
                      if os.access(path, os.X_OK) and path.is_file())
    assert benches and examples, f'no binaries under {build}'
    print(f'{len(benches)} benches, {len(examples)} examples')

    for binary in benches + examples:
        listing = refused([binary, '--no-such-flag'],
                          'unknown flag --no-such-flag;')
        refused([binary, 'stray'], "unexpected argument 'stray'")
        declared = re.findall(r' --([a-z-]+)', listing.split('takes', 1)[-1])
        missing = [flag for flag in declared if flag not in TINY_OPERANDS]
        if missing:
            failures.append(f'{binary.name}: no tiny operand for {missing}')
            continue
        command = [binary] + [
            f'--{flag}' if TINY_OPERANDS[flag] is None
            else f'--{flag}={TINY_OPERANDS[flag]}' for flag in declared]
        result = run(command, timeout=600)
        print(f'{"ok  " if result.returncode == 0 else "FAIL"} '
              f'{binary.name} with its {len(declared)} flags: exit '
              f'{result.returncode}')
        if result.returncode != 0:
            print(result.stderr)
            failures.append(f'{binary.name} with every declared flag')

    fig7 = build / 'bench' / 'bench_fig7_indicators'
    refused([fig7, '--scenario=d100'], 'unknown flag --scenario;',
            ' --scenarios ')
    refused([fig7, '--serve=7000'], 'unknown flag --serve;', ' --shard ',
            ' --merge ')
    for variable, flag in REMOVED_VARIABLES.items():
        refused([fig7], f'{variable} is no longer read; pass {flag}=x',
                **{variable: 'x'})
    # The campaign options and the plan are checked after the header.
    tiny = [fig7, '--scenarios=static-grid', '--runs=1', '--evals=4',
            '--networks=1', '--no-cache']
    refused(tiny + ['--algorithms=Random,Random'],
            "duplicate algorithm 'Random' in the experiment plan", header=True)
    refused(tiny + ['--algorithms=Random', '--shard-dir=zz'], '--shard-dir',
            '--shard=i/N', header=True)
    # Figure CSVs are named by the plan: two campaigns at one scale keep
    # two files.
    for scenarios in ('static-grid', 'd100'):
        run(tiny[:1] + [f'--scenarios={scenarios}'] + tiny[2:]
            + ['--algorithms=Random'], timeout=300)
    csvs = sorted(Path(workdir, 'results').glob('fig7_indicators_*.csv'))
    print(f'{"ok  " if len(csvs) == 2 else "FAIL"} two fig7 campaigns at one '
          f'scale: {[path.name for path in csvs]}')
    if len(csvs) != 2:
        failures.append('two fig7 campaigns at one scale share a CSV')
    quickstart = build / 'examples' / 'quickstart'
    refused([quickstart, '--density=100'], 'unknown flag --density;',
            ' --scenario ')
    # Malformed operands and unknown names exit 2 too, before any output.
    screening = build / 'bench' / 'bench_fidelity_screening'
    refused([quickstart, '--seed=abc'], "--seed needs a non-negative integer")
    refused([quickstart, '--scenario=underwater'],
            "unknown scenario 'underwater'")
    refused([build / 'examples' / 'tune_aedb', '--threads=-1'],
            "--threads needs a non-negative integer")
    refused([screening, '--bench-seeds=abc'], '--bench-seeds needs')
    refused([screening, '--json'], '--json needs a file path')
    if failures:
        sys.exit(f'{len(failures)} command-line check(s) failed: '
                 + '; '.join(failures))
    print('every binary rejects undeclared input and takes its own flags')


def main(argv):
    if len(argv) == 3 and argv[1] == 'perf':
        perf(argv[2])
    elif len(argv) == 2 and argv[1] == 'reachability':
        reachability()
    elif len(argv) == 3 and argv[1] == 'cli':
        cli(argv[2])
    else:
        sys.exit(__doc__)


if __name__ == '__main__':
    main(sys.argv)

#!/usr/bin/env python3
"""Checked-in CI gates; each also runs locally from any directory.

  python3 tools/ci/gates.py perf bench_micro_sim.json
      The perf-smoke gates over a `bench_micro_sim --benchmark_format=json`
      run, in order: benchmark registration, pooled wall time against
      BENCH_PR3.json (AEDB_PERF_GATE_FACTOR, default 1.30), heap
      allocations per pooled run (AEDB_ALLOCS_PER_RUN_CEILING, default 16)
      and the pinned simulator events per run.  Stops at the first gate
      that fails.

  python3 tools/ci/gates.py reachability
      Fails when a src/**/*.hpp header has no includer under src/, bench/,
      examples/, tools/ or perfbench/.  The header's own .cpp does not
      count, so library surface that only tests reach is reported.

Exit status: 0 when every gate passes, non-zero naming what failed.
"""

import json
import os
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


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
    factor = float(os.environ.get('AEDB_PERF_GATE_FACTOR', '1.30'))
    baseline = json.load(open(ROOT / 'BENCH_PR3.json'))['per_run_scenario']
    bench = load_bench(path)

    def ms(name):
        entry = bench.get(name)
        assert entry is not None, f'{name} missing from bench output'
        assert entry.get('time_unit') == 'ms', entry
        return entry['real_time']

    densities = ('d100', 'd200', 'd300')
    speed = statistics.median(
        ms(f'BM_FullScenario/{d[1:]}') / baseline[d]['after_fresh_ms']
        for d in densities)
    print(f'runner speed vs baseline box (fresh path, median): {speed:.2f}x')
    failures = []
    for density in densities:
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
    ceiling = float(os.environ.get('AEDB_ALLOCS_PER_RUN_CEILING', '16'))
    bench = load_bench(path)
    failures = []
    for density in (100, 200, 300):
        name = f'BM_FullScenarioPooled/{density}'
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
    # before that cull.
    densities = {100: 15388, 200: 60598, 300: 136627}
    pinned = {f'{kind}/{density}': expected
              for kind in ('BM_FullScenario', 'BM_FullScenarioPooled')
              for density, expected in densities.items()}
    pinned['BM_SparseWidePooled'] = 27050
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


def main(argv):
    if len(argv) == 3 and argv[1] == 'perf':
        perf(argv[2])
    elif len(argv) == 2 and argv[1] == 'reachability':
        reachability()
    else:
        sys.exit(__doc__)


if __name__ == '__main__':
    main(sys.argv)

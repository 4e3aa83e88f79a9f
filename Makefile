PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench-smoke bench bench-perf bench-perf-smoke bench-profile \
	sweep validate cache-stats clean-cache docs-links

test:
	$(PYTHON) -m pytest -x -q

# Tiny mix through the parallel runner with 2 workers; exits non-zero
# if the epoch loop, cache, savings sanity checks, or the capped leg
# (a 2-point power-budget sweep through the cap governor) fail.
bench-smoke:
	$(PYTHON) -m repro bench --smoke --jobs 2

# Smoke mix with the DDR3 protocol validator armed in every simulated
# run (timing, freeze-window, refresh, powerdown, and conservation
# checks raise on the first violation).
validate:
	$(PYTHON) -m repro bench --smoke --jobs 2 --validate --no-cache

# Micro-benchmarks (pytest-benchmark; declared in the [bench] extra).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Simulator-throughput benchmark: pinned workloads, events/sec recorded
# to BENCH_perf.json, non-zero exit on a >10% regression vs the
# committed baseline (same machine only).
bench-perf:
	$(PYTHON) -m repro perfbench

# Non-gating variant for CI smoke: prints the baseline-vs-current
# comparison and refreshes BENCH_perf.json (uploaded as an artifact)
# but never fails on *throughput* — shared-runner numbers are too
# noisy to gate; the 10% same-machine gate stays a local concern
# (`make bench-perf`). The absorption check IS gating: the busy-period
# absorber and the steady-state surrogate must both have engaged on
# mid1, machine speed notwithstanding — zero absorbed events there
# means the fast path silently stopped firing.
bench-perf-smoke:
	$(PYTHON) -m repro perfbench --no-gate
	$(PYTHON) -c "import json; r = json.load(open('BENCH_perf.json'))['latest']['mid1']; \
	assert r['events_busy_absorbed'] > 0, 'busy-period chain absorption never engaged on mid1: %r' % r; \
	assert r['events_steady_skipped'] > 0, 'steady-state surrogate never engaged on mid1: %r' % r; \
	print('perfbench: mid1 absorption engaged (busy_absorbed=%d steady_skipped=%d)' \
	% (r['events_busy_absorbed'], r['events_steady_skipped']))"

# Profile the measured runs: single repeat of every scenario under
# cProfile, top-20 cumulative hot spots printed, raw pstats dump in
# perf.pstats (the CI artifact). Writes its record to a scratch file so
# the profiler's overhead never pollutes BENCH_perf.json numbers.
bench-profile:
	$(PYTHON) -m repro perfbench --no-gate --repeats 1 \
	    --output .bench_profile.json --profile-out perf.pstats

# Fail on dangling intra-repo references in README/docs/EXPERIMENTS/
# DESIGN (markdown links and backtick-quoted paths).
docs-links:
	$(PYTHON) tools/check_docs_links.py

cache-stats:
	$(PYTHON) -m repro cache

sweep:
	$(PYTHON) -m repro sweep --mixes ILP1 MID1 MID2 MEM1 \
	    --policies MemScale Static Decoupled --jobs 2

clean-cache:
	rm -rf .repro_cache

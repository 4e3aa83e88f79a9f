PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench-smoke bench sweep validate cache-stats clean-cache \
	docs-links

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

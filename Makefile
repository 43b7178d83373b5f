# Convenience targets for the Basil reproduction.

.PHONY: install test loc bench quick-bench trace-smoke fault-smoke fault-sweep perf-smoke paper-smoke prof-smoke load-smoke load-sweep obs-smoke parallel-smoke parallel-ladder geo-smoke geo-sweep examples clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/ 2>&1 | tee test_output.txt

# Source lines per src/repro package, in the top-level modules (the run
# pipeline, the config, the CLI) and in total.
loc:
	@for d in $$(ls -d src/repro/*/ | grep -v __pycache__); do printf '%7d %s\n' "$$(find $$d -name '*.py' | xargs cat | wc -l)" $$d; done
	@printf '%7d %s\n' "$$(cat src/repro/*.py | wc -l)" 'src/repro/*.py'
	@printf '%7d %s\n' "$$(find src/repro -name '*.py' | xargs cat | wc -l)" src/repro

# Every figure and both ablations at the default scale, each paper claim
# judged; FIGURES.json is what EXPERIMENTS.md's tables are rendered from.
bench:
	python -m repro sweep figures --out FIGURES.json

quick-bench:
	python -m repro sweep figures --scale quick

trace-smoke:
	pytest tests -m trace_smoke -q
	python examples/trace_a_transaction.py

fault-smoke:
	pytest tests -m fault_smoke -q
	python examples/partition_during_prepare.py

fault-sweep:
	python -m repro sweep faults --seeds 25

# The one perf ledger: all six BENCHMARK.json workloads at small sizes,
# every gate (twin equality, HistoryChecker, kernel-mix counts, ...).
# Wall numbers are judged at full size only: see basilbench/README.md.
perf-smoke:
	python3 -m basilbench run --selftest

# The paper's YCSB-T population (10 M keys, Sec 6.1) on a 2-shard Basil
# deployment for a short window: genesis is implicit, so this builds in
# milliseconds and holds state only for the keys the window touches.
paper-smoke:
	python -m repro run --kind basil --workload ycsb-t --workload-keys 10000000 \
		--num-shards 2 --num-clients 8 --duration 0.05 --warmup 0.01

prof-smoke:
	pytest tests/prof -m prof_smoke -q
	python examples/profile_hot_path.py
	python -m repro run --kind microbench --timers 500 --duration 0.05 --prof --min-coverage 0.8
	python -m repro run --workload ycsb-u --workload-keys 2000 --num-clients 12 --num-shards 2 \
		--duration 0.1 --warmup 0.05 --prof --min-coverage 0.8
	python -m repro run --workload ycsb-u --workload-keys 2000 --num-clients 12 --num-shards 2 \
		--duration 0.1 --warmup 0.05 --prof --min-coverage 0.8 --workers 2

parallel-smoke:
	pytest tests/parallel -m parallel_smoke -q
	python -m repro run --kind basil --workers 2 --num-shards 3 --duration 0.02 --warmup 0.005 --num-clients 4 --workload-keys 300
	python -m repro sweep ladder --scale quick

parallel-ladder:
	python -m repro sweep ladder
	python -m repro sweep ladder --scale quick

geo-smoke:
	pytest tests/geo -m geo_smoke -q
	python examples/edge_sessions.py
	python -m repro sweep geo --topologies wan3 \
		--duration 0.5 --warmup 0.15 --workload-keys 16

geo-sweep:
	python -m repro sweep geo --topologies wan3 wan5 --obs runs/geo

load-smoke:
	pytest tests -m load_smoke -q
	python examples/overload_recovery.py
	python -m repro sweep load --scale quick --num-clients 8 --proxies 8 \
		--loads 800 1600 2400 --no-closed-loop --no-overload

load-sweep:
	python -m repro sweep load --kind basil --workload ycsb-t

obs-smoke:
	pytest tests -m obs_smoke -q
	REPRO_QUICK=1 python examples/health_dashboard.py

examples:
	python examples/quickstart.py
	python examples/banking.py
	python examples/social_network.py
	python examples/byzantine_recovery.py
	python examples/multi_shard_tpcc.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache src/repro.egg-info

# Convenience targets; everything assumes the in-tree layout (PYTHONPATH=src).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-vector smoke perf-smoke chaos-smoke resume-smoke fabric-smoke model-smoke bench-store service-smoke recovery-smoke bench-service

## Tier-1: the full unit/integration suite (what CI gates on).
test:
	$(PYTHON) -m pytest -x -q

## Tier-2: the E1-E13 experiment suite; regenerates benchmarks/results/.
bench:
	$(PYTHON) -m pytest -q benchmarks/

## The vector-engine scaling capture: reruns the E10 flood comparison
## across all three engines (plus the n=1000 batched-vs-vector cell) and
## rewrites benchmarks/results/e10_vector.txt. Needs numpy; skips cleanly
## without it.
bench-vector:
	$(PYTHON) -m pytest -q benchmarks/bench_e10_scaling.py \
		-k test_e10_vector_speedup --benchmark-disable

## Fast end-to-end check: a small sweep through the process pool with
## caching, via the CLI — once per execution engine, so a regression in
## either the batched fast path or the reference loop surfaces here.
## Catches pool pickling and cache regressions in seconds without running
## the full benchmark suite.
smoke:
	$(PYTHON) -m repro.cli sweep --algorithms alg1 okun-crash \
		--sizes 4:1 5:1 --attacks silent crash --seeds 0 1 \
		--workers 2 --engine batched
	$(PYTHON) -m repro.cli sweep --algorithms alg1 okun-crash \
		--sizes 4:1 5:1 --attacks silent crash --seeds 0 1 \
		--workers 2 --engine reference

## Benchmark smoke: a short traced paper-exact run of the repository
## benchmark. Every run's output is checked and the counted pass is
## repeated over the same seeds, so a protocol change that breaks the
## paper's guarantees, the benchmark's output checks or its exact-repeat
## guard ends in "correct": false, which fails this target.
perf-smoke:
	$(PYTHON) perfbench/run.py --workload paper-exact --seed 1 --seconds 5 \
		--trace 1 | tail -n 1 | $(PYTHON) -c \
		'import json, sys; r = json.load(sys.stdin); print("perf-smoke:", r); assert r["correct"] is True'

## Beyond-model fault-injection campaign on both engines via the chaos
## CLI. Exit 0 means the campaign is healthy (every injection classified,
## no quarantined cells, no silent successes) — individual detections and
## property violations are findings, not failures. A campaign that hangs,
## drops a run, or lets an injected fault pass unverified fails here.
chaos-smoke:
	$(PYTHON) -m repro.cli chaos --algorithms alg1 alg4 \
		--sizes 7:2 11:2 --seeds 0 1 --chaos-seeds 0 1 \
		--engines batched reference --preset smoke \
		--workers 2 --timeout 120

## Durability smoke: SIGKILL a ~50-cell --store campaign mid-flight
## (deterministically, right after the 20th finished cell becomes durable
## in the store — the whole run must die, exit 137), resume it from the
## store with two spawned workers, and assert via the store's own event
## log that not one cell produced a second terminal result.
RESUME_SMOKE_DIR := .resume-smoke
resume-smoke:
	rm -rf $(RESUME_SMOKE_DIR)
	REPRO_STORE_CRASH_AFTER=finish:20 $(PYTHON) -m repro.cli chaos \
		--algorithms alg1 --sizes 7:2 --seeds 0 1 2 3 4 5 6 7 8 9 \
		--chaos-seeds 0 1 --drop 0.05 0.1 --workers 1 --timeout 120 \
		--store $(RESUME_SMOKE_DIR)/store --run-id smoke; \
		CODE=$$?; echo "resume-smoke: kill step exited $$CODE"; \
		[ $$CODE -eq 137 ]
	$(PYTHON) -m repro.cli runs resume --store $(RESUME_SMOKE_DIR)/store \
		--workers 2
	$(PYTHON) -m repro.cli runs doctor --store $(RESUME_SMOKE_DIR)/store \
		--assert-no-reexecution
	rm -rf $(RESUME_SMOKE_DIR)

## Fabric smoke: the full distributed arrangement on one host — a
## coordinator-only sweep seeding a shared sqlite store, two separately
## started pull-based workers draining it — then assert zero cells were
## executed twice (store event log, via the doctor) and that the CSV is
## byte-identical to a single-process control run.
FABRIC_SMOKE_DIR := .fabric-smoke
FABRIC_SMOKE_GRID := --algorithms alg1 okun-crash --sizes 7:2 \
	--attacks silent --seeds 0 1 2 3
fabric-smoke:
	rm -rf $(FABRIC_SMOKE_DIR)
	mkdir -p $(FABRIC_SMOKE_DIR)
	$(PYTHON) -m repro.cli sweep $(FABRIC_SMOKE_GRID) --workers 1 \
		--csv $(FABRIC_SMOKE_DIR)/control.csv
	$(PYTHON) -m repro.cli sweep $(FABRIC_SMOKE_GRID) \
		--store sqlite:$(FABRIC_SMOKE_DIR)/store.db --coordinator-only \
		--csv $(FABRIC_SMOKE_DIR)/fabric.csv & COORD=$$!; \
	$(PYTHON) -m repro.cli worker \
		--store sqlite:$(FABRIC_SMOKE_DIR)/store.db --worker-id smoke-w1 \
		--wait-for-store 60 & W1=$$!; \
	$(PYTHON) -m repro.cli worker \
		--store sqlite:$(FABRIC_SMOKE_DIR)/store.db --worker-id smoke-w2 \
		--wait-for-store 60 & W2=$$!; \
	wait $$COORD && wait $$W1 && wait $$W2
	$(PYTHON) -m repro.cli runs doctor \
		--store sqlite:$(FABRIC_SMOKE_DIR)/store.db --assert-no-reexecution
	cmp $(FABRIC_SMOKE_DIR)/control.csv $(FABRIC_SMOKE_DIR)/fabric.csv
	rm -rf $(FABRIC_SMOKE_DIR)

## System-model smoke: one canned scenario per non-classic model axis,
## then one model sweep per execution path — the dir-cached process pool
## (impersonation) and the sqlite store fabric with a pull-based worker
## (partial synchrony) — so model serialization is exercised through
## RunTask journals and store rows, not just in-process calls. Exit 0
## means every run held the properties its model guarantees.
MODEL_SMOKE_DIR := .model-smoke
model-smoke:
	rm -rf $(MODEL_SMOKE_DIR)
	mkdir -p $(MODEL_SMOKE_DIR)
	$(PYTHON) -m repro.cli scenario forged-senders --algorithm alg1
	$(PYTHON) -m repro.cli scenario lossy-rounds --algorithm floodset
	$(PYTHON) -m repro.cli sweep --algorithms alg1 okun-crash floodset \
		--sizes 7:2 --seeds 0 1 --model impersonation:k=2 \
		--workers 2 --cache $(MODEL_SMOKE_DIR)/cache
	$(PYTHON) -m repro.cli sweep --algorithms floodset --sizes 7:2 \
		--seeds 0 1 2 3 --model partial-synchrony:rate=0.05,delay=2 \
		--store sqlite:$(MODEL_SMOKE_DIR)/store.db --coordinator-only \
		& COORD=$$!; \
	$(PYTHON) -m repro.cli worker \
		--store sqlite:$(MODEL_SMOKE_DIR)/store.db --worker-id model-w1 \
		--wait-for-store 60 & W1=$$!; \
	wait $$COORD && wait $$W1
	$(PYTHON) -m repro.cli runs doctor \
		--store sqlite:$(MODEL_SMOKE_DIR)/store.db --assert-no-reexecution
	rm -rf $(MODEL_SMOKE_DIR)

## Service smoke: the renaming daemon under real load and a real SIGTERM.
## Starts the daemon on an ephemeral port (the port file is the
## handshake), drives a 1500-session burst at 500 concurrent sessions —
## every completed session's assignment is re-validated client-side
## against check_renaming, so exit 0 is a correctness statement, not just
## liveness — then SIGTERMs the daemon mid-way through a second load and
## asserts the drain contract: the late load must not observe an invalid
## certificate (exit 2) and the daemon must exit 0 (drained clean) or 4
## (sessions shed), never crash.
SERVICE_SMOKE_DIR := .service-smoke
service-smoke:
	rm -rf $(SERVICE_SMOKE_DIR)
	mkdir -p $(SERVICE_SMOKE_DIR)
	$(PYTHON) -m repro.cli serve --port 0 \
		--port-file $(SERVICE_SMOKE_DIR)/port \
		--max-sessions 600 --session-deadline 30 --idle-timeout 30 \
		--drain-grace 60 & SRV=$$!; \
	for i in $$(seq 200); do \
		[ -s $(SERVICE_SMOKE_DIR)/port ] && break; sleep 0.1; done; \
	$(PYTHON) -m repro.cli load --port-file $(SERVICE_SMOKE_DIR)/port \
		--sessions 1500 --concurrency 500 --ids 8 \
		--report $(SERVICE_SMOKE_DIR)/burst.txt; BURST=$$?; \
	$(PYTHON) -m repro.cli load --port-file $(SERVICE_SMOKE_DIR)/port \
		--sessions 600 --concurrency 200 --ids 8 \
		--report $(SERVICE_SMOKE_DIR)/drain.txt & LOADGEN=$$!; \
	sleep 0.5; kill -TERM $$SRV; \
	wait $$LOADGEN; DRAINLOAD=$$?; \
	wait $$SRV; SERVE=$$?; \
	echo "service-smoke: burst=$$BURST drain-load=$$DRAINLOAD serve=$$SERVE"; \
	[ $$BURST -eq 0 ] && [ $$DRAINLOAD -ne 2 ] && \
		{ [ $$SERVE -eq 0 ] || [ $$SERVE -eq 4 ]; }
	rm -rf $(SERVICE_SMOKE_DIR)

## Crash-recovery end-to-end: a journaled daemon takes a tokened burst
## *through the chaos proxy* (connection resets + mid-frame truncation)
## and is SIGKILLed mid-load by the deterministic crash hook; a fresh
## daemon restarts on the same journal and the identical burst is
## re-driven — every token must complete (pre-crash sessions answered
## byte-identically from the journal, interrupted ones re-admitted
## exactly once), a query must answer from the journal, and the offline
## `sessions list` reader must accept the journal. Every injected fault
## must surface as a typed client error — the burst may fail sessions
## (exit 3 if the kill landed early) but must never report an invalid
## certificate (exit 2) and must never hang.
RECOVERY_SMOKE_DIR := .recovery-smoke
recovery-smoke:
	rm -rf $(RECOVERY_SMOKE_DIR)
	mkdir -p $(RECOVERY_SMOKE_DIR)
	REPRO_SERVICE_CRASH_AFTER=completed:30 \
	$(PYTHON) -m repro.cli serve --port 0 \
		--port-file $(RECOVERY_SMOKE_DIR)/svc.port \
		--session-journal $(RECOVERY_SMOKE_DIR)/sessions.jsonl \
		--max-sessions 200 --session-deadline 30 --idle-timeout 30 \
		--drain-grace 60 & SRV=$$!; \
	for i in $$(seq 200); do \
		[ -s $(RECOVERY_SMOKE_DIR)/svc.port ] && break; sleep 0.1; done; \
	$(PYTHON) -m repro.cli proxy \
		--upstream-file $(RECOVERY_SMOKE_DIR)/svc.port \
		--port-file $(RECOVERY_SMOKE_DIR)/proxy.port \
		--reset 0.1 --truncate 0.1 --seed 7 & PRX=$$!; \
	for i in $$(seq 200); do \
		[ -s $(RECOVERY_SMOKE_DIR)/proxy.port ] && break; sleep 0.1; done; \
	$(PYTHON) -m repro.cli load \
		--port-file $(RECOVERY_SMOKE_DIR)/proxy.port \
		--sessions 60 --concurrency 20 --ids 8 --seed 0 \
		--session-prefix rsmoke --retries 2 --timeout 10 \
		--report $(RECOVERY_SMOKE_DIR)/burst.txt; BURST=$$?; \
	wait $$SRV; CRASH=$$?; \
	rm -f $(RECOVERY_SMOKE_DIR)/svc.port; \
	$(PYTHON) -m repro.cli serve --port 0 \
		--port-file $(RECOVERY_SMOKE_DIR)/svc.port \
		--session-journal $(RECOVERY_SMOKE_DIR)/sessions.jsonl \
		--max-sessions 200 --session-deadline 30 --idle-timeout 30 \
		--drain-grace 60 & SRV=$$!; \
	for i in $$(seq 200); do \
		[ -s $(RECOVERY_SMOKE_DIR)/svc.port ] && break; sleep 0.1; done; \
	$(PYTHON) -m repro.cli load \
		--port-file $(RECOVERY_SMOKE_DIR)/svc.port \
		--sessions 60 --concurrency 20 --ids 8 --seed 0 \
		--session-prefix rsmoke --retries 5 --timeout 30 \
		--report $(RECOVERY_SMOKE_DIR)/redrive.txt; REDRIVE=$$?; \
	grep -Eq "completed +60" $(RECOVERY_SMOKE_DIR)/redrive.txt; FULL=$$?; \
	$(PYTHON) -m repro.cli query rsmoke-0 \
		--port-file $(RECOVERY_SMOKE_DIR)/svc.port > /dev/null; QUERY=$$?; \
	kill -TERM $$PRX; wait $$PRX; \
	kill -TERM $$SRV; wait $$SRV; SERVE=$$?; \
	$(PYTHON) -m repro.cli sessions list \
		--journal $(RECOVERY_SMOKE_DIR)/sessions.jsonl > /dev/null; LIST=$$?; \
	echo "recovery-smoke: burst=$$BURST crash=$$CRASH redrive=$$REDRIVE \
		all-completed=$$FULL query=$$QUERY serve=$$SERVE list=$$LIST"; \
	[ $$CRASH -eq 137 ] && [ $$BURST -ne 2 ] && [ $$REDRIVE -eq 0 ] && \
		[ $$FULL -eq 0 ] && [ $$QUERY -eq 0 ] && [ $$SERVE -eq 0 ] && \
		[ $$LIST -eq 0 ]
	rm -rf $(RECOVERY_SMOKE_DIR)

## Service throughput capture: sessions/sec and p50/p99 session latency
## for burst, sustained, and adversarial scenarios over loopback TCP,
## plus the journal-on vs journal-off durability-cost comparison.
## Rewrites benchmarks/results/service_load.txt.
bench-service:
	$(PYTHON) benchmarks/bench_service_load.py \
		--out benchmarks/results/service_load.txt

## Store throughput capture: claims/sec and streamed rows/sec at 10k
## cells on both backends, plus the bounded-memory proof — a 50k-cell
## streamed aggregation whose peak RSS growth is asserted flat. Rewrites
## benchmarks/results/store_throughput.txt.
bench-store:
	$(PYTHON) benchmarks/bench_store_throughput.py \
		--out benchmarks/results/store_throughput.txt

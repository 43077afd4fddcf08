GO ?= go
FUZZTIME ?= 30s

.PHONY: check build vet lint lint-fix test race bench bench-memory bench-plan fuzz fuzz-plan fuzzcert chaos chaos-crash serve-smoke loadtest loadtest-smoke

# check is what CI runs: build, vet, lint, and the full test suite under
# the race detector (the parallel executor must stay race-clean).
check: build vet lint race

# lint runs the repo-local static checks. vetcert is the type-aware
# invariant analyzer (tools/vetcert): governance polling on row loops,
# memory-charge balance, context threading, snapshot discipline,
# guard-sentinel hygiene, and the exhaustiveness rules (closed-family
# type switches, guard-sentinel dispatch, strict enums). It owns the aggregate exit code — 0 clean, 1 findings,
# 2 operational error — and make propagates it verbatim. certlint must
# then cleanly process the checked-in Q⁺ corpus (the translated
# experiment queries): the queries are hazardous by construction, which
# is certlint's exit status 1, so only an operational error (>=2) fails
# the target — and it fails with certlint's own status, not a swallowed
# zero.
lint:
	$(GO) run ./tools/vetcert
	@$(GO) run ./cmd/certlint -tpch internal/certain/testdata/golden/*.sql > /dev/null; \
		status=$$?; if [ $$status -ne 0 ] && [ $$status -ne 1 ]; then \
		echo "certlint: operational error (exit $$status)" >&2; exit $$status; fi

# lint-fix is deliberately not an auto-fixer: every vetcert finding is
# an invariant violation, and the fix is either real (thread the ctx,
# release the charge, name the missing case) or a documented
# suppression — never a mechanical rewrite. This target prints the
# suppression etiquette and the rule list.
lint-fix:
	@echo "vetcert has no auto-fixer. Fix the invariant, or suppress with"
	@echo ""
	@echo "    // vetcert:ignore <rule>[, <rule>...]: <reason>"
	@echo ""
	@echo "on the offending line, in the comment block directly above it, or"
	@echo "in the enclosing function's doc comment. The reason is part of the"
	@echo "annotation: an unexplained suppression is a review blocker."
	@echo ""
	@echo "Registered rules:"
	@$(GO) run ./tools/vetcert -rules

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-memory compares the streaming and materializing executors' peak
# estimated intermediate memory (peak_bytes) on the translated Q1-Q4
# and asserts the streaming engine's >=2x reduction on Q4.
bench-memory:
	$(GO) test -run '^$$' -bench BenchmarkStreamingMemory -benchtime 5x .

# bench-plan measures the cost-based planner against the paper-faithful
# naive plans (Options.NaivePlanner) on the translated Q1-Q4, prepared,
# single-core, under both the default and the raw (unsplit, Section 7)
# translations, then runs the acceptance check: >=1.5x on at least two
# appendix queries with byte-identical results (EXPERIMENTS.md records
# the measured table). BenchmarkRoutes then times Q+1-Q+4 on the raw,
# default and naive-planner routes, the table behind EXPERIMENTS.md's
# "Why there is no sharding".
bench-plan:
	$(GO) test -run '^$$' -bench BenchmarkPlannerSpeedup -benchtime 5x .
	$(GO) test -run '^$$' -bench BenchmarkRoutes -benchtime 3x .
	$(GO) test -run '^TestPlannerSpeedup$$' -count=1 -v .

# fuzz runs every native fuzz target for FUZZTIME each, under the race
# detector. 30s per target is the CI smoke setting; for a nightly long
# run use e.g.
#
#	make fuzz FUZZTIME=10m
#
# Crashers are written to the package's testdata/fuzz/<Target>/
# directory and replay as part of the plain test suite — commit them.
fuzz:
	$(GO) test -race -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/sql
	$(GO) test -race -run='^$$' -fuzz=FuzzLex -fuzztime=$(FUZZTIME) ./internal/sql
	$(GO) test -race -run='^$$' -fuzz=FuzzLike -fuzztime=$(FUZZTIME) ./internal/value
	$(GO) test -race -run='^$$' -fuzz=FuzzUnifyTuples -fuzztime=$(FUZZTIME) ./internal/value
	$(GO) test -race -run='^$$' -fuzz=FuzzCertainPipeline -fuzztime=$(FUZZTIME) ./internal/difftest
	$(GO) test -race -run='^$$' -fuzz=FuzzCompileEval -fuzztime=$(FUZZTIME) ./internal/difftest
	$(GO) test -race -run='^$$' -fuzz=FuzzAnalyzerSoundness -fuzztime=$(FUZZTIME) ./internal/difftest
	$(GO) test -race -run='^$$' -fuzz=FuzzPlannerAblation -fuzztime=$(FUZZTIME) ./internal/difftest

# fuzz-plan hammers only the planner's byte-identity contract: the
# coverage-guided planner-ablation fuzzer (optimized vs naive plans,
# both semantics, both engines) under the race detector.
fuzz-plan:
	$(GO) test -race -run='^$$' -fuzz=FuzzPlannerAblation -fuzztime=$(FUZZTIME) ./internal/difftest

# fuzzcert runs the seeded differential oracle over a deterministic
# range of cases (no coverage guidance, instantly reproducible: every
# failure prints its seed and a shrunken Go repro).
fuzzcert:
	$(GO) run ./cmd/fuzzcert -cases 2000 -seed 1

# chaos sweeps the fault-injection / cancellation / degradation
# invariants (DESIGN.md §10) over 500 seeded cases under the race
# detector: every injected fault must surface as a typed error (never a
# panic, never a wrong answer), a random-point cancellation must land
# as guard.ErrCanceled in every ablation, degraded results must equal
# the certain answers exactly, the streaming and materializing engines
# must render identical bytes on every clean case, injected panics must
# never poison the plan or view caches, and no goroutine may leak.
chaos:
	$(GO) test -race -count=1 -run '^TestChaosSweep$$' ./internal/difftest

# chaos-crash is the durability counterpart (DESIGN.md §15): 200 seeded
# kill-point runs crash the persistent store at every durability seam
# (WAL append, fsync, segment write, manifest rename, checkpoint) under
# the race detector, asserting recovery lands on a valid monotone
# version with the catalog and Q1-Q4 byte-identical to an in-RAM
# oracle and fsck clean afterwards; then the out-of-process kill -9
# harness replays real SIGKILLs against certsqld -data-dir with the
# fsck pass as the final gate.
chaos-crash:
	$(GO) test -race -count=1 -run '^TestCrashRecovery$$' ./internal/difftest
	GO=$(GO) ./scripts/crash_smoke.sh

# serve-smoke is the end-to-end check of the serving layer: build
# certsqld and the shell, start the server on a random port, run the
# paper's Q1-Q4 twice each through the remote client, assert from
# /metrics that the plan cache served repeats and that no request ended
# in a 5xx, then SIGTERM and require a clean drain (exit 0).
serve-smoke:
	GO=$(GO) ./scripts/serve_smoke.sh

# loadtest soaks certsqld with the closed-loop generator in
# cmd/loadtest (the paper's Q1-Q4 plus ad-hoc variations) and reports
# QPS, latency percentiles and 5xx counts; EXPERIMENTS.md records the
# measured table. DURATION and CONCURRENCY pass through to the script.
loadtest:
	GO=$(GO) ./scripts/loadtest.sh

# loadtest-smoke is the CI setting: a short soak that asserts the
# server survives concurrent load with zero 5xx responses and drains
# cleanly.
loadtest-smoke:
	GO=$(GO) DURATION=3s ./scripts/loadtest.sh

GO ?= go

.PHONY: all build test short vet race chaos bench check cover ci trace fuzz-smoke bench-ab lines

all: build test

build:
	$(GO) build ./...

# The conformance suite, the observability layer, the live-update
# protocol, the multi-queue path (rss + nic), both engines, the fleet
# control plane, the multi-tenant device and the durability layer rerun
# under the race detector even in the default gate: the tracer,
# registry, update machinery and the dispatcher/worker goroutines are
# the pieces most likely to grow cross-goroutine users, the journal is
# the piece a crash must never be able to corrupt, the fast path is the
# engine the RSS workers drive concurrently, and the interpreter — two
# execution tables that must agree — is the one every fleet device
# steps on its own goroutine; and the map store, which RSS replicas
# share read-only across their goroutines. The fleet serves its devices on one
# goroutine each, so fleet and tenant run at one worker thread (the
# goroutines take turns) and at four (they overlap): the same reports,
# digests and events are due at both.
test:
	$(GO) test ./...
	$(GO) test -race ./internal/conformance/ ./internal/obs/ ./internal/liveupdate/ ./internal/rss/ ./internal/nic/ ./internal/fastpath/ ./internal/hwsim/ ./internal/durable/ ./internal/maps/
	$(GO) test -race -cpu 1,4 ./internal/fleet/ ./internal/tenant/

# Quick slice: skips the chaos campaign sweep and long fuzz runs.
short:
	$(GO) test -short ./...

# go vet, and gofmt: a file gofmt would rewrite fails the gate.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: not gofmt-clean:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# Full fault-injection campaign: every app under every fault class,
# intensity sweep included (the tests that testing.Short skips), plus
# the SEU-heal recovery suite, the fleet-level chaos gate (device kills
# and silent corruption mid-rollout, rollback, drain/re-admit), the
# multi-tenant noisy-neighbor gate (aggressor under the full fault menu
# beside a victim whose verdicts must stay bit-identical to a solo run)
# and the kill-anywhere recovery gate (controller crashed at every
# journal commit point and rollout phase, then resumed — the recovered
# fleet report must be byte-identical to the uninterrupted run).
chaos:
	$(GO) test -race -run 'Chaos|Truncated|Malformed|Watchdog|Resilience|Recovery|Protect|Fleet|Rollback|Tenant|Journal|Resume|Replay|Torn' ./internal/...

# Coverage gate for the self-healing subsystem, the observability
# layer, the RSS dispatcher, the NIC shell, the fleet control plane, the
# multi-tenant device and the durability layer: the protection codecs,
# the simulator that hosts the recovery machinery, the
# tracer/metrics/profiling package, the multi-queue front end, the
# serving loops and the report fold, the fleet controller, the tenant
# classifier/policer/admission gate and the journal codec
# must stay above their floors (protect 90%, hwsim 85%, obs 85%, rss
# 85%, nic 85%, fastpath 85%, fleet 85%, tenant 85%, durable 85%) — hwsim
# holds the semantics of every op both engines run — and so must vm
# (85%), the reference interpreter those ops are held to, maps
# (85%), the store every lookup of every engine lands in, hdl (90%),
# whose netlist both the VHDL text and the resource bill derive from,
# liveupdate (85%), the one update protocol both loops call,
# cmd/ehdl (80%), the one command every documented run goes through,
# the compiler every design comes from: core (85%), ddg (70%), ebpf
# (80%) and cfg (90%), and pktgen (90%), whose frames every engine and
# every golden reads. A gated package missing from the coverage output
# fails the gate — a silently dropped package must not read as a pass.
cover:
	@$(GO) test -cover ./internal/protect/ ./internal/hwsim/ ./internal/obs/ ./internal/rss/ ./internal/nic/ ./internal/fastpath/ ./internal/fleet/ ./internal/tenant/ ./internal/durable/ ./internal/vm/ ./internal/maps/ ./internal/hdl/ ./internal/liveupdate/ ./internal/core/ ./internal/ddg/ ./internal/ebpf/ ./internal/cfg/ ./internal/pktgen/ ./cmd/ehdl/ | tee /tmp/ehdl-cover.txt
	@awk 'function gate(pkg, floor,    a) { seen[pkg] = 1; split($$5, a, "%"); \
	          if (a[1]+0 < floor) { printf "FAIL: %s coverage %s%% < %d%%\n", pkg, a[1], floor; bad = 1 } } \
	      /internal\/protect/  { gate("internal/protect", 90) } \
	      /internal\/hwsim/    { gate("internal/hwsim", 85) } \
	      /internal\/obs/      { gate("internal/obs", 85) } \
	      /internal\/rss/      { gate("internal/rss", 85) } \
	      /internal\/nic/      { gate("internal/nic", 85) } \
	      /internal\/fastpath/ { gate("internal/fastpath", 85) } \
	      /internal\/fleet/    { gate("internal/fleet", 85) } \
	      /internal\/tenant/   { gate("internal/tenant", 85) } \
	      /internal\/durable/  { gate("internal/durable", 85) } \
	      /internal\/vm/       { gate("internal/vm", 85) } \
	      /internal\/maps/     { gate("internal/maps", 85) } \
	      /internal\/hdl/      { gate("internal/hdl", 90) } \
	      /internal\/liveupdate/ { gate("internal/liveupdate", 85) } \
	      /internal\/core/     { gate("internal/core", 85) } \
	      /internal\/ddg/      { gate("internal/ddg", 70) } \
	      /internal\/ebpf/     { gate("internal/ebpf", 80) } \
	      /internal\/cfg/      { gate("internal/cfg", 90) } \
	      /internal\/pktgen/   { gate("internal/pktgen", 90) } \
	      /cmd\/ehdl/          { gate("cmd/ehdl", 80) } \
	      END { n = split("protect hwsim obs rss nic fastpath fleet tenant durable vm maps hdl liveupdate core ddg ebpf cfg pktgen", want, " "); \
	            for (i = 1; i <= n; i++) if (!seen["internal/" want[i]]) { printf "FAIL: internal/%s missing from coverage output\n", want[i]; bad = 1 } \
	            if (!seen["cmd/ehdl"]) { printf "FAIL: cmd/ehdl missing from coverage output\n"; bad = 1 } \
	            exit bad }' /tmp/ehdl-cover.txt
	@echo "coverage gates passed"

# Short fuzz sweeps over the seven adversarial surfaces: the vm-vs-hwsim
# conformance fuzzer, the three-way vm/interpreter/fast-path fuzzer
# (random frames against every app — one divergent verdict, map byte or
# ledger count fails), the migration schema/copy fuzzer, the RSS
# dispatcher fuzzer (malformed/truncated frames against the Toeplitz
# front end), the tenant classifier fuzzer (the same hostile frames
# against the VLAN/prefix steering — unclassifiable input must be
# quarantined and traced, never silently dropped) and the journal
# decoder fuzzer (torn tails, truncations and bit flips against the WAL
# framing — typed corruption errors or clean truncation, never a panic
# or a silent misparse) and the hash store's model fuzzer (random
# lookup/update/delete/iterate sequences on small HASH and LRU_HASH maps
# against a slice in recency order). Ten seconds each — a smoke pass over the
# corpus plus fresh mutations, not a campaign.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDifferential -fuzztime 10s ./internal/conformance/
	$(GO) test -run '^$$' -fuzz FuzzFastPath -fuzztime 10s ./internal/conformance/
	$(GO) test -run '^$$' -fuzz FuzzMigrate -fuzztime 10s ./internal/liveupdate/
	$(GO) test -run '^$$' -fuzz FuzzRSSDispatch -fuzztime 10s ./internal/rss/
	$(GO) test -run '^$$' -fuzz FuzzTenantClassifier -fuzztime 10s ./internal/tenant/
	$(GO) test -run '^$$' -fuzz FuzzJournalDecode -fuzztime 10s ./internal/durable/
	$(GO) test -run '^$$' -fuzz FuzzHashModel -fuzztime 10s ./internal/maps/

# Host-speed A/B of this tree against a parent revision on one workload
# of ./bench: a pristine copy of PARENT (git archive — nothing is left
# registered in .git), one bench binary per tree, each run from its own
# tree root with the end-to-end pass only, PAIRS pairs alternating which
# side runs first. Prints every pair's host_mpps, host_allocs_per_pkt and
# setup_s, then each side's median [quartiles] of all three with the
# numcpu/GOMAXPROCS its runs reported (a parallel speed-up without its
# core count is not a measurement), the pairs the change won on host_mpps
# (higher wins), on host_allocs_per_pkt and on setup_s (lower wins), and
# `bench compare` on the last pair for the other metrics. Run lengths are the harness's own
# (20 s a side), so ten pairs take about seven minutes.
#	make bench-ab PARENT=HEAD~1 WORKLOAD=toy_q4_fast
PARENT ?= HEAD~1
WORKLOAD ?= toy_q4_fast
PAIRS ?= 10
AB_DIR ?= /tmp/ehdl-bench-ab
bench-ab:
	rm -rf $(AB_DIR) && mkdir -p $(AB_DIR)/parent
	git archive $(PARENT) | tar -x -C $(AB_DIR)/parent
	cd $(AB_DIR)/parent && $(GO) build -o $(AB_DIR)/bench.parent ./bench
	$(GO) build -o $(AB_DIR)/bench.change ./bench
	@change=$$PWD; for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi; \
		for side in $$order; do \
			if [ $$side = parent ]; then root=$(AB_DIR)/parent; else root=$$change; fi; \
			(cd $$root && $(AB_DIR)/bench.$$side -workload $(WORKLOAD) -trace 0 -out $(AB_DIR)/$$side.$$i.json) > $(AB_DIR)/$$side.$$i.txt || exit 1; \
			for m in host_mpps host_allocs_per_pkt setup_s; do \
				sed -n "s/.*\"$$m\":{\"value\":\([0-9.e+-]*\).*/\1/p" $(AB_DIR)/$$side.$$i.txt | tail -1 >> $(AB_DIR)/$$side.$$m; \
			done; \
		done; \
		echo "pair $$i ($$order first): parent $$(tail -1 $(AB_DIR)/parent.host_mpps)  change $$(tail -1 $(AB_DIR)/change.host_mpps) Mpkt/s," \
			"allocs/pkt parent $$(tail -1 $(AB_DIR)/parent.host_allocs_per_pkt)  change $$(tail -1 $(AB_DIR)/change.host_allocs_per_pkt)," \
			"setup_s parent $$(tail -1 $(AB_DIR)/parent.setup_s)  change $$(tail -1 $(AB_DIR)/change.setup_s)"; \
	done
	@for side in parent change; do for m in host_mpps host_allocs_per_pkt setup_s; do sort -g $(AB_DIR)/$$side.$$m | awk -v side=$$side -v m=$$m \
		-v host="$$(sed -n '1s/^\(numcpu [0-9]*\)  *\(GOMAXPROCS [0-9]*\).*/\1 \2/p' $(AB_DIR)/$$side.1.txt)" \
		'function q(p,  h, lo) { h = (NR - 1) * p; lo = int(h); return v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1]) } \
		 { v[NR] = $$1 } END { printf "%-6s %s median %.4g [%.4g %.4g] n=%d  %s\n", side, m, q(0.5), q(0.25), q(0.75), NR, host }'; done; done
	@paste $(AB_DIR)/parent.host_mpps $(AB_DIR)/change.host_mpps | awk '$$2 > $$1 { w++ } $$2 < $$1 { l++ } END { printf "host_mpps: change won %d, lost %d of %d pairs\n", w, l, NR }'
	@paste $(AB_DIR)/parent.host_allocs_per_pkt $(AB_DIR)/change.host_allocs_per_pkt | awk '$$2 < $$1 { w++ } $$2 > $$1 { l++ } END { printf "host_allocs_per_pkt: change won %d, lost %d of %d pairs\n", w, l, NR }'
	@paste $(AB_DIR)/parent.setup_s $(AB_DIR)/change.setup_s | awk '$$2 < $$1 { w++ } $$2 > $$1 { l++ } END { printf "setup_s: change won %d, lost %d of %d pairs\n", w, l, NR }'
	@$(AB_DIR)/bench.change compare $(AB_DIR)/parent.$(PAIRS).json $(AB_DIR)/change.$(PAIRS).json || true

# The full gate a PR must clear. Simulated figures are gated inside
# `test` (TestGoldenTables in internal/experiments, byte for byte); host
# speed is measured by `bench` and gated by `bench-ab`.
ci: vet build test race chaos cover fuzz-smoke

# The benchmark harness (four workloads, 20 s), then the interpreter's
# packet lifecycle in ns/frame with its allocation count (the harness's
# hwsim.exec_ns, reproduced without it) and, as the firewall/one-burst
# row, the executor alone on the hazard-free table the fast path runs
# (fastpath.exec_ns less the timing skeleton).
bench:
	$(GO) run ./bench
	$(GO) test -bench Interpreter -run '^$$' ./internal/hwsim/

# Non-test Go lines per package directory of the module (cmd/ehdl,
# bench/ and every internal/ package, nested ones included),
# the change since PARENT (make lines PARENT=HEAD before committing;
# a directory that exists on one side only counts 0 on the other) and
# their total: the headline metric of a design PR (ROADMAP aim 2).
lines:
	@{ find . -name '*.go' ! -path './.git/*'; git ls-tree -r --name-only $(PARENT) | grep '\.go$$' | sed 's|^|./|'; } | \
		grep -v '_test\.go$$' | xargs -n1 dirname | sort -u | while read d; do \
		now=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + 2>/dev/null | wc -l); \
		was=$$(git ls-tree --name-only $(PARENT) $${d#./}/ 2>/dev/null | grep '\.go$$' | grep -v '_test\.go$$' | \
			while read f; do git show $(PARENT):$$f; done | wc -l); \
		printf '%6d %+6d %s/\n' $$now $$((now - was)) $${d#./}; \
	done | awk '{ print; now += $$1; delta += $$2 } END { printf "%6d %+6d total\n", now, delta }'

# Observability demo: a traced, metered firewall run of `ehdl sim`.
# Leaves the cycle-level event stream in /tmp/ehdl-trace.jsonl.
trace:
	$(GO) run ./cmd/ehdl sim -app firewall -packets 2000 -trace /tmp/ehdl-trace.jsonl -metrics
	@echo "trace written to /tmp/ehdl-trace.jsonl"

check: vet build test race

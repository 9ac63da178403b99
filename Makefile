# Mirrors .github/workflows/ci.yml — every CI job runs its gate
# through the target of the same name here, so `make ci` runs exactly
# what CI runs (bar the network-fetched govulncheck scan) and a green
# local run means a green PR.

GO ?= go

.PHONY: build test race lint bench chaos obsv-smoke tenant-smoke ops-smoke interp-smoke durable-smoke phase-smoke cluster-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

lint:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...
	$(GO) run ./cmd/lce-bench -alignspeed -short -workers 8 -json bench.json

# Chaos soak: fault/retry packages under the race detector, then
# seeded end-to-end alignments against a 10%-flaky oracle. lce-align
# exits non-zero on any semantic divergence.
chaos:
	$(GO) test -race -count=2 ./internal/fault/... ./internal/retry/...
	$(GO) test -race -run 'Chaos' ./internal/align/... ./internal/httpapi/... ./internal/eval/...
	$(GO) run ./cmd/lce-align -service ec2 -perfect -chaos -fault-rate 0.1 -chaos-seed 7
	$(GO) run ./cmd/lce-align -service dynamodb -perfect -chaos -fault-rate 0.1 -chaos-seed 7
	$(GO) run ./cmd/lce-align -service ec2 -chaos -fault-rate 0.1 -chaos-seed 7

# Observability smoke: a seeded traced alignment run exports its spans
# as JSONL, and lce-tracecheck re-validates the trace from the outside
# (parents resolve within their trace, every trace has a root, no
# duplicate span IDs). A chaos run rides along so fault/retry events
# land in the artifact too.
obsv-smoke:
	$(GO) run ./cmd/lce-align -service ec2 -perfect -workers 4 -trace-out trace.jsonl > /dev/null
	$(GO) run ./cmd/lce-tracecheck trace.jsonl
	@$(GO) run ./cmd/lce-align -service ec2 -perfect -chaos -no-retry -fault-rate 0.1 -chaos-seed 7 -trace-out trace-chaos.jsonl > /dev/null; \
	rc=$$?; [ $$rc -eq 0 ] || [ $$rc -eq 2 ] || exit $$rc # exit 2 = residual exhausted-transient divergences, expected without retries
	$(GO) run ./cmd/lce-tracecheck trace-chaos.jsonl

# Tenant smoke: boot a real lce-server and drive the /v2 surface end
# to end with curl — session isolation, batch, pool stats, and the
# legacy wire format staying RequestId-free — then run the
# multi-tenant bench (session sweep + /batch amortization) in smoke
# mode, leaving bench-tenant.json behind as the perf artifact.
tenant-smoke:
	$(GO) build -o lce-server-smoke ./cmd/lce-server
	@set -e; \
	./lce-server-smoke -service ec2 -backend oracle -addr 127.0.0.1:4597 >/dev/null 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; rm -f lce-server-smoke' EXIT; \
	for i in $$(seq 1 50); do curl -sf 127.0.0.1:4597/healthz >/dev/null && break; sleep 0.1; done; \
	out=$$(curl -sf -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4597/v2/ec2?Action=CreateVpc' -d '{"params":{"cidrBlock":"10.0.0.0/16"}}'); \
	echo "$$out" | grep -q '"vpcId"' || { echo "v2 invoke failed: $$out"; exit 1; }; \
	echo "$$out" | grep -q '"RequestId"' || { echo "v2 response missing RequestId: $$out"; exit 1; }; \
	out=$$(curl -sf -XPOST -H 'X-LCE-Session: bob' '127.0.0.1:4597/v2/ec2?Action=DescribeVpcs'); \
	echo "$$out" | grep -q '"vpcs":\[\]' || { echo "session isolation broken, bob sees: $$out"; exit 1; }; \
	out=$$(curl -sf -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4597/v2/ec2/batch' -d '{"mode":"best-effort","requests":[{"action":"CreateVpc","params":{"cidrBlock":"10.1.0.0/16"}},{"action":"CreateVpc","params":{"cidrBlock":"10.0.0.0/8"}}]}'); \
	echo "$$out" | grep -q '"succeeded":1' && echo "$$out" | grep -q '"failed":1' || { echo "batch semantics broken: $$out"; exit 1; }; \
	out=$$(curl -sf '127.0.0.1:4597/v2/sessions'); \
	echo "$$out" | grep -q '"sessions":2' || { echo "pool stats wrong: $$out"; exit 1; }; \
	out=$$(curl -sf -XPOST '127.0.0.1:4597/invoke' -d '{"action":"DescribeVpcs"}'); \
	echo "$$out" | grep -q '"result"' || { echo "legacy invoke failed: $$out"; exit 1; }; \
	echo "$$out" | grep -q 'RequestId' && { echo "legacy wire format changed: $$out"; exit 1; }; \
	curl -sf -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4597/v2/ec2/reset' -o /dev/null || { echo "session reset failed"; exit 1; }; \
	out=$$(curl -sf -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4597/v2/ec2?Action=DescribeVpcs'); \
	echo "$$out" | grep -q '"vpcs":\[\]' || { echo "session reset did not clear alice: $$out"; exit 1; }; \
	echo "tenant smoke: v2 invoke, isolation, batch, stats, legacy format, session reset all OK"
	$(GO) run ./cmd/lce-bench -tenant -short -json bench-tenant.json

# Operations-plane smoke: boot a chaos lce-server with the ops plane
# on, stream /debug/events over SSE while driving seeded traffic, lint
# the live /metrics scrape in both content negotiations with
# lce-tracecheck, then dump the flight recorder and replay it through
# lce-replay against a fresh server with the same seeds — any byte
# difference in any response fails the target. Last, the ops overhead
# bench (plane off vs on) runs. The dump, the SSE capture and the
# bench are left behind as artifacts (flight-dump.json,
# ops-events.txt, bench-ops.json).
ops-smoke:
	$(GO) build -o lce-server-ops ./cmd/lce-server
	$(GO) build -o lce-replay-ops ./cmd/lce-replay
	$(GO) build -o lce-tracecheck-ops ./cmd/lce-tracecheck
	@set -e; \
	./lce-server-ops -service ec2 -backend oracle -chaos -fault-rate 0.2 -chaos-seed 7 -addr 127.0.0.1:4599 -log-format off >/dev/null 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -f lce-server-ops lce-replay-ops lce-tracecheck-ops' EXIT; \
	for i in $$(seq 1 50); do curl -s 127.0.0.1:4599/healthz >/dev/null && break; sleep 0.1; done; \
	curl -s -N -m 30 '127.0.0.1:4599/debug/events' > ops-events.txt & sse=$$!; \
	sleep 0.3; \
	curl -s -XPOST '127.0.0.1:4599/invoke' -d '{"action":"CreateVpc","params":{"cidrBlock":"10.0.0.0/16"}}' >/dev/null; \
	for i in $$(seq 1 15); do \
		curl -s -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4599/v2/ec2?Action=DescribeVpcs' >/dev/null; \
	done; \
	curl -s 127.0.0.1:4599/metrics | ./lce-tracecheck-ops -metrics -; \
	curl -s -H 'Accept: application/openmetrics-text' 127.0.0.1:4599/metrics | ./lce-tracecheck-ops -metrics -; \
	curl -s 127.0.0.1:4599/debug/flightrecorder > flight-dump.json; \
	sleep 0.2; kill $$sse 2>/dev/null || true; \
	grep -q '^data: ' ops-events.txt || { echo "no SSE events captured"; exit 1; }; \
	echo "ops smoke: $$(grep -c '^data: ' ops-events.txt) SSE events streamed"; \
	kill $$pid 2>/dev/null; \
	./lce-replay-ops -dump flight-dump.json -backend oracle -chaos -fault-rate 0.2 -chaos-seed 7; \
	echo "ops smoke: metrics lint (prom + openmetrics), SSE stream, flight dump + byte-identical replay all OK"
	$(GO) run ./cmd/lce-bench -ops -short -json bench-ops.json

# Interp gate: the closure-compiled interpreter must answer
# byte-identically to the reference tree-walker — differential suites
# (chaos included) under the race detector, wire-level parity through
# two full server stacks, the zero-alloc fast path (build-tagged out
# under -race, hence the separate non-race run) — and the compiled-vs-
# walked bench must clear the 5x speedup floor on the hot-loop row or
# the target fails. bench-interp.json is left behind as the artifact.
interp-smoke:
	$(GO) test -race -run 'Interp' ./internal/interp/... ./internal/eval/... .
	$(GO) test -run 'ZeroAlloc' ./internal/interp/
	$(GO) run ./cmd/lce-bench -interp -interp-floor 5 -json bench-interp.json

# Durable gate: the journal-torture, spill-transparency, and
# kill-and-recover suites under the race detector; short fuzz passes
# over the journal reader and snapshot decoder (the torn-tail /
# bit-flip corpus); then a real-process crash drill — boot lce-server
# over a data directory, mint state across two sessions, kill -9 the
# process, restart over the same directory, and assert every session
# answers with its pre-crash state and continues its ID space. The
# -durable bench leaves bench-durable.json behind and itself exits
# non-zero if the sessions-beyond-RAM continuity oracle breaks.
durable-smoke:
	$(GO) test -race ./internal/durable/...
	$(GO) test -race -run 'Durable|Export|Restore|ReplayPartialWindow' ./internal/interp/ ./internal/eval/ .
	$(GO) test -run '^$$' -fuzz FuzzReadJournal -fuzztime 5s ./internal/durable/
	$(GO) test -run '^$$' -fuzz FuzzDecodeSnapshot -fuzztime 5s ./internal/durable/
	$(GO) build -o lce-server-durable ./cmd/lce-server
	@set -e; \
	datadir=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -f lce-server-durable; rm -rf $$datadir' EXIT; \
	./lce-server-durable -service ec2 -backend learned -data-dir $$datadir -fsync batch -addr 127.0.0.1:4601 -log-format off >/dev/null 2>&1 & pid=$$!; \
	for i in $$(seq 1 50); do curl -sf 127.0.0.1:4601/healthz >/dev/null && break; sleep 0.1; done; \
	curl -sf -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4601/v2/ec2?Action=CreateVpc' -d '{"params":{"cidrBlock":"10.0.0.0/16"}}' >/dev/null; \
	curl -sf -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4601/v2/ec2?Action=CreateVpc' -d '{"params":{"cidrBlock":"10.1.0.0/16"}}' >/dev/null; \
	curl -sf -XPOST -H 'X-LCE-Session: bob' '127.0.0.1:4601/v2/ec2?Action=CreateVpc' -d '{"params":{"cidrBlock":"10.2.0.0/16"}}' >/dev/null; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	./lce-server-durable -service ec2 -backend learned -data-dir $$datadir -fsync batch -addr 127.0.0.1:4601 -log-format off >/dev/null 2>&1 & pid=$$!; \
	for i in $$(seq 1 50); do curl -sf 127.0.0.1:4601/healthz >/dev/null && break; sleep 0.1; done; \
	out=$$(curl -sf -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4601/v2/ec2?Action=DescribeVpcs'); \
	echo "$$out" | grep -q 'vpc-00000001' && echo "$$out" | grep -q 'vpc-00000002' || { echo "alice lost state across kill -9: $$out"; exit 1; }; \
	out=$$(curl -sf -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4601/v2/ec2?Action=CreateVpc' -d '{"params":{"cidrBlock":"10.3.0.0/16"}}'); \
	echo "$$out" | grep -q 'vpc-00000003' || { echo "alice ID continuity broken after recovery: $$out"; exit 1; }; \
	out=$$(curl -sf -XPOST -H 'X-LCE-Session: bob' '127.0.0.1:4601/v2/ec2?Action=DescribeVpcs'); \
	echo "$$out" | grep -q 'vpc-00000001' || { echo "bob lost state across kill -9: $$out"; exit 1; }; \
	echo "$$out" | grep -q 'vpc-00000002' && { echo "session isolation broken after recovery: $$out"; exit 1; }; \
	out=$$(curl -sf '127.0.0.1:4601/v2/sessions'); \
	echo "$$out" | grep -q '"spilled"' || { echo "pool stats missing spill tier: $$out"; exit 1; }; \
	echo "durable smoke: kill -9 recovery, ID continuity, isolation, spill stats all OK"
	$(GO) run ./cmd/lce-bench -durable -short -json bench-durable.json

# Phase gate: the request-path timing spine end to end. The spine's
# suites (phase timer self-time accounting, on-vs-off byte parity,
# stall watchdog, SSE heartbeats, durable metric cycles) run under the
# race detector; the -phases bench itself fails unless per-phase
# latency tiles end-to-end latency (coverage within [0.9, 1.1]) and
# the durable scenario records an fsync phase; lce-perfdiff gates the
# machine-independent trajectory against the committed baseline and
# self-tests that an injected 2x fsync regression is caught; finally a
# live lce-server must answer /v2 with a Server-Timing header carrying
# the phase breakdown. bench-phases.json is left behind as the
# artifact.
phase-smoke:
	$(GO) test -race -run 'Phase|Stall|Heartbeat|RuntimeSampler|DurableMetrics|ServerTiming' ./internal/obsv/ ./internal/durable/ ./internal/opsplane/ ./internal/eval/ ./internal/httpapi/ .
	$(GO) run ./cmd/lce-bench -phases -short -json bench-phases.json
	$(GO) run ./cmd/lce-perfdiff -tolerance 0.5 bench/bench-phases-baseline.json bench-phases.json
	$(GO) run ./cmd/lce-perfdiff -self-test bench-phases.json
	$(GO) build -o lce-server-phase ./cmd/lce-server
	@set -e; \
	./lce-server-phase -service ec2 -backend oracle -addr 127.0.0.1:4603 -log-format off >/dev/null 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -f lce-server-phase' EXIT; \
	for i in $$(seq 1 50); do curl -sf 127.0.0.1:4603/healthz >/dev/null && break; sleep 0.1; done; \
	hdr=$$(curl -sf -D - -o /dev/null -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4603/v2/ec2?Action=CreateVpc' -d '{"params":{"cidrBlock":"10.0.0.0/16"}}' | grep -i '^server-timing:'); \
	echo "$$hdr" | grep -q 'decode;dur=' || { echo "Server-Timing missing decode phase: $$hdr"; exit 1; }; \
	echo "$$hdr" | grep -q 'interp.dispatch;dur=' || { echo "Server-Timing missing dispatch phase: $$hdr"; exit 1; }; \
	curl -sf 127.0.0.1:4603/metrics | grep -q 'lce_phase_seconds_count' || { echo "lce_phase_seconds missing from live scrape"; exit 1; }; \
	echo "phase smoke: Server-Timing + live phase histograms OK"

# Cluster smoke: the scale-out tier end to end with real processes.
# Three learned lce-server nodes share one data directory with -fsync
# always; an lce-router fronts them with a fast prober. Sessions
# accumulate state through the router while a control server receives
# the same calls with the same request IDs; one node is kill -9'd
# mid-traffic, and after the ring rebalances every session must
# answer byte-identically to the control — the surviving owners adopt
# the dead node's sessions from the shared directory, and any 5xx in
# the failover window must carry the unified transient envelope. The
# /v2/cluster view must report the death and /v2/sessions must
# aggregate the fleet.
#
# The tracing leg: every process runs with its default tracer, so
# after the traffic the surviving nodes' /debug/traces dumps plus the
# router's fleet-merged dump form a bundle lce-tracecheck -stitch
# validates — no orphan remote parents, child windows nested in
# parents' (500ms skew: separate processes end spans concurrently),
# migration spans bracketing each placement flip. The router /healthz
# body must carry the fleet SLO section. The -cluster bench leaves
# bench-cluster.json behind (router hop + tracing-tax rows), itself
# exits non-zero if live migration breaks byte continuity, and
# lce-perfdiff gates the machine-independent ratios against the
# committed baseline.
cluster-smoke:
	$(GO) test -race ./internal/cluster/...
	$(GO) build -o lce-server-cluster ./cmd/lce-server
	$(GO) build -o lce-router-cluster ./cmd/lce-router
	$(GO) build -o lce-tracecheck-cluster ./cmd/lce-tracecheck
	@set -e; \
	datadir=$$(mktemp -d); \
	trap 'kill $$p1 $$p2 $$p3 $$pr $$pc 2>/dev/null || true; rm -f lce-server-cluster lce-router-cluster lce-tracecheck-cluster; rm -rf $$datadir' EXIT; \
	./lce-server-cluster -service ec2 -backend learned -node n1 -data-dir $$datadir -fsync always -addr 127.0.0.1:4611 -log-format off >/dev/null 2>&1 & p1=$$!; \
	./lce-server-cluster -service ec2 -backend learned -node n2 -data-dir $$datadir -fsync always -addr 127.0.0.1:4612 -log-format off >/dev/null 2>&1 & p2=$$!; \
	./lce-server-cluster -service ec2 -backend learned -node n3 -data-dir $$datadir -fsync always -addr 127.0.0.1:4613 -log-format off >/dev/null 2>&1 & p3=$$!; \
	./lce-server-cluster -service ec2 -backend learned -addr 127.0.0.1:4614 -log-format off >/dev/null 2>&1 & pc=$$!; \
	for port in 4611 4612 4613 4614; do for i in $$(seq 1 50); do curl -sf 127.0.0.1:$$port/healthz >/dev/null && break; sleep 0.1; done; done; \
	./lce-router-cluster -addr 127.0.0.1:4610 -nodes n1=http://127.0.0.1:4611,n2=http://127.0.0.1:4612,n3=http://127.0.0.1:4613 -probe-interval 200ms -fail-threshold 1 >/dev/null 2>&1 & pr=$$!; \
	for i in $$(seq 1 50); do curl -sf 127.0.0.1:4610/healthz >/dev/null && break; sleep 0.1; done; \
	for s in 1 2 3 4 5 6; do for c in 1 2; do \
		r=$$(curl -s -XPOST -H "X-LCE-Session: smoke-$$s" -H "X-LCE-Request-Id: pre-$$s-$$c" "127.0.0.1:4610/v2/ec2?Action=CreateVpc" -d "{\"params\":{\"cidrBlock\":\"10.$$c.0.0/16\"}}"); \
		k=$$(curl -s -XPOST -H "X-LCE-Session: smoke-$$s" -H "X-LCE-Request-Id: pre-$$s-$$c" "127.0.0.1:4614/v2/ec2?Action=CreateVpc" -d "{\"params\":{\"cidrBlock\":\"10.$$c.0.0/16\"}}"); \
		[ "$$r" = "$$k" ] || { echo "pre-kill divergence (session $$s call $$c):"; echo "router : $$r"; echo "control: $$k"; exit 1; }; \
	done; done; \
	kill -9 $$p2; \
	sleep 1; \
	for s in 1 2 3 4 5 6; do \
		for i in $$(seq 1 30); do \
			code=$$(curl -s -o /tmp/lce-cluster-smoke-body -w '%{http_code}' -XPOST -H "X-LCE-Session: smoke-$$s" -H "X-LCE-Request-Id: post-$$s" "127.0.0.1:4610/v2/ec2?Action=DescribeVpcs"); \
			[ "$$code" = 502 ] || [ "$$code" = 503 ] || break; \
			grep -q '"__error":true' /tmp/lce-cluster-smoke-body || { echo "failover 5xx without unified envelope: $$(cat /tmp/lce-cluster-smoke-body)"; exit 1; }; \
			sleep 0.2; \
		done; \
		r=$$(cat /tmp/lce-cluster-smoke-body); \
		k=$$(curl -s -XPOST -H "X-LCE-Session: smoke-$$s" -H "X-LCE-Request-Id: post-$$s" "127.0.0.1:4614/v2/ec2?Action=DescribeVpcs"); \
		[ "$$r" = "$$k" ] || { echo "post-kill divergence (session $$s):"; echo "router : $$r"; echo "control: $$k"; exit 1; }; \
	done; \
	out=$$(curl -s 127.0.0.1:4610/v2/cluster); \
	echo "$$out" | grep -q '"healthy":false' || { echo "cluster view missing dead node: $$out"; exit 1; }; \
	out=$$(curl -s 127.0.0.1:4610/v2/sessions); \
	echo "$$out" | grep -q '"cluster":true' || { echo "fleet sessions aggregation broken: $$out"; exit 1; }; \
	out=$$(curl -s 127.0.0.1:4610/healthz); \
	echo "$$out" | grep -q '"slo"' || { echo "router /healthz missing fleet SLO section: $$out"; exit 1; }; \
	curl -s "127.0.0.1:4610/debug/traces?format=jsonl" > trace-router.jsonl; \
	curl -s "127.0.0.1:4611/debug/traces?format=jsonl" > trace-n1.jsonl; \
	curl -s "127.0.0.1:4613/debug/traces?format=jsonl" > trace-n3.jsonl; \
	./lce-tracecheck-cluster -stitch -skew 500ms trace-router.jsonl trace-n1.jsonl trace-n3.jsonl; \
	rm -f /tmp/lce-cluster-smoke-body; \
	echo "cluster smoke: 3-node fleet, kill -9 failover, byte parity vs control, fleet views, stitched traces all OK"
	$(GO) run ./cmd/lce-bench -cluster -short -json bench-cluster.json
	$(GO) run ./cmd/lce-perfdiff -tolerance 0.5 bench/bench-cluster-baseline.json bench-cluster.json

ci: build lint race chaos bench obsv-smoke tenant-smoke ops-smoke interp-smoke durable-smoke phase-smoke cluster-smoke

#!/bin/sh
# wire-smoke: end-to-end check of the network serving edge. Builds
# jobserved and loadgen, starts the server on a loopback port, drives a
# short closed-loop client run over the wire protocol, and asserts that
# every submitted job came back StatusOK — a nonzero completed count is
# the floor, an exact one is the contract (block admission on an
# unloaded pool refuses nothing). It then replays the steady corpus
# scenario over the wire in an open loop and asserts every one of its
# jobs came back with a status. CI runs this on every push so the
# wire codec, the connection reader/writer pair, and the client cannot
# rot while unit tests stay green. The server runs with a per-connection
# in-flight bound (-window) and a periodic report (-report), which must
# have printed at least one `wire:` line before shutdown. The script also
# checks the server's exit report, everything after "shutting down", for
# the lines benchmarks/svcbench parses: one `wire:` line and one
# `shard N:` line per shard.
set -eu
cd "$(dirname "$0")/.."

addr="127.0.0.1:${WIRE_SMOKE_PORT:-7977}"
shards=2

# wireRE and shardRE from benchmarks/svcbench/child.go, translated from Go
# regexp syntax to POSIX ERE (\d -> [0-9], \s -> [[:space:]]).
wire_re='^wire: .* frames [0-9]+ in / [0-9]+ out, bytes [0-9]+ in / [0-9]+ out, jobs [0-9]+ in, results [0-9]+ out \([0-9]+ refused\)'
shard_re='^[[:space:]]+shard [0-9]+: .* [0-9]+ jobs completed, migrated in [0-9]+ / out [0-9]+'

jobs="${WIRE_SMOKE_JOBS:-100}"
conns="${WIRE_SMOKE_CONNS:-2}"
total=$((jobs * conns))

dir=$(mktemp -d)
srv_pid=""
cleanup() {
	[ -n "$srv_pid" ] && kill "$srv_pid" 2>/dev/null || true
	rm -rf "$dir"
}
trap cleanup EXIT

go build -o "$dir" ./cmd/jobserved ./cmd/loadgen

"$dir/jobserved" -addr "$addr" -workers 4 -shards "$shards" -window 64 -report 50ms >"$dir/server.log" 2>&1 &
srv_pid=$!

# Wait for the listener: a 1-job probe doubles as the readiness check.
ready=""
i=0
while [ "$i" -lt 50 ]; do
	if "$dir/loadgen" -mode client -addr "$addr" -submitters 1 -jobs 1 >/dev/null 2>&1; then
		ready=1
		break
	fi
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$ready" ]; then
	echo "wire-smoke: server never came up on $addr" >&2
	cat "$dir/server.log" >&2
	exit 1
fi

out=$("$dir/loadgen" -mode client -addr "$addr" -submitters "$conns" -jobs "$jobs" -batch 16 -size 1024 -tenants 2)
echo "$out"
# The open loop: the steady corpus scenario replayed over the wire, each
# record timed from when it was due. Its deadlines may refuse a job on a
# busy host, so the contract is that every job comes back with a status.
replayed=$("$dir/loadgen" -mode client -addr "$addr" -submitters "$conns" -scenario steady)
echo "$replayed"
# Outlast one -report period, so the periodic report has printed.
sleep 0.1

kill -INT "$srv_pid"
wait "$srv_pid" || true
srv_pid=""
echo
cat "$dir/server.log"

ok=$(echo "$out" | awk '$1 == "ok" { print $2 }')
if [ "${ok:-0}" != "$total" ]; then
	echo "wire-smoke: expected $total ok jobs over the wire, got '${ok:-0}'" >&2
	exit 1
fi
want=$(sed -n '1s/.*"jobs":\([0-9]*\).*/\1/p' testdata/scenarios/steady.jsonl)
got=$(echo "$replayed" | awk '$1 == "client:" { print $2 }')
if [ -z "$want" ] || [ "${got:-0}" != "$want" ]; then
	echo "wire-smoke: the steady replay got back '${got:-0}' of '$want' jobs" >&2
	exit 1
fi
sed '/^jobserved: shutting down$/q' "$dir/server.log" >"$dir/running.log"
sed -n '/^jobserved: shutting down$/,$p' "$dir/server.log" >"$dir/exit.log"
n=$(grep -cE "$wire_re" "$dir/running.log" || true)
if [ "$n" -lt 1 ]; then
	echo "wire-smoke: the -report period printed no wire: line before shutdown" >&2
	exit 1
fi
n=$(grep -cE "$wire_re" "$dir/exit.log" || true)
if [ "$n" != 1 ]; then
	echo "wire-smoke: the exit report holds $n lines in svcbench's wire: shape, want 1" >&2
	exit 1
fi
s=0
while [ "$s" -lt "$shards" ]; do
	n=$(grep -E "$shard_re" "$dir/exit.log" | grep -cE "^[[:space:]]+shard $s: " || true)
	if [ "$n" != 1 ]; then
		echo "wire-smoke: the exit report holds $n lines in svcbench's shard $s: shape, want 1" >&2
		exit 1
	fi
	s=$((s + 1))
done
echo
echo "wire-smoke: $ok/$total jobs completed over the wire, $got/$want replayed; wire: and $shards shard lines in svcbench's shapes"

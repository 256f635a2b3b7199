#!/bin/sh
# wire-smoke: end-to-end check of the network serving edge. Builds
# jobserved and loadgen, starts the server on a loopback port, drives a
# short closed-loop client run over the wire protocol, and asserts that
# every submitted job came back StatusOK — a nonzero completed count is
# the floor, an exact one is the contract (block admission on an
# unloaded pool refuses nothing). CI runs this on every push so the
# wire codec, the connection reader/writer pair, and the client cannot
# rot while unit tests stay green. It also checks the server's exit
# report for the lines benchmarks/svcbench parses: one `wire:` line and
# one `shard N:` line per shard.
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

"$dir/jobserved" -addr "$addr" -workers 4 -shards "$shards" >"$dir/server.log" 2>&1 &
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
n=$(grep -cE "$wire_re" "$dir/server.log" || true)
if [ "$n" != 1 ]; then
	echo "wire-smoke: server.log holds $n lines in svcbench's wire: shape, want 1" >&2
	exit 1
fi
s=0
while [ "$s" -lt "$shards" ]; do
	n=$(grep -E "$shard_re" "$dir/server.log" | grep -cE "^[[:space:]]+shard $s: " || true)
	if [ "$n" != 1 ]; then
		echo "wire-smoke: server.log holds $n lines in svcbench's shard $s: shape, want 1" >&2
		exit 1
	fi
	s=$((s + 1))
done
echo
echo "wire-smoke: $ok/$total jobs completed over the wire; wire: and $shards shard lines in svcbench's shapes"

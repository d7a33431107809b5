// Command perfbench is the repository's benchmark. It deploys the
// WS-Dispatcher stack in one process over loopback TCP on the wall clock
// — a dispatcher as cmd/wsd builds it, echo backends, and for the durable
// workload a WAL-backed WS-MsgBox as cmd/wsmsgbox -store deploys it —
// drives it through the public peer library with closed-loop generators,
// verifies every exchange, and prints one JSON result line.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload rpc-echo --seed 1 --seconds 10 --trace 0
//
// Workloads: rpc-echo, msg-reply, mbox-durable. With --trace 0 the result
// carries the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a traced run and the attribution of the mean exchange to
// its stages.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric units, by name.
var units = map[string]string{
	"throughput_ops_s": "1/s",
	"latency_p50_us":   "us",
	"latency_p90_us":   "us",
	"verified_frac":    "ratio",
	"setup_s":          "s",
	"cpu_us_per_op":    "us",
}

func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	for _, r := range []struct{ suffix, unit string }{
		{"_us_p50", "us"}, {"_us_p99", "us"}, {"_us_mean", "us"}, {"_us_per_op", "us"},
		{"_ns", "ns"}, {"_s", "s"}, {"_frac", "ratio"}, {"bytes_per_op", "B"}, {"_mb", "MB"},
	} {
		if strings.HasSuffix(name, r.suffix) {
			return r.unit
		}
	}
	return "count"
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "rpc-echo | msg-reply | mbox-durable")
	seed := flag.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Int("seconds", 10, "measured interval in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	root := flag.String("root", ".", "repository checkout (working files go under .bench_build)")
	sha := flag.String("git-sha", "none", "commit being measured, when known")
	flag.Parse()
	if _, err := newWorkload(*workload); err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload rpc-echo|msg-reply|mbox-durable, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}

	env := newEnvRecord(*root, *sha)
	env.Workload, env.Seed, env.Seconds, env.Trace = *workload, *seed, *seconds, *trace == 1
	cfg := runConfig{
		workload:     *workload,
		seed:         *seed,
		seconds:      time.Duration(*seconds) * time.Second,
		trace:        *trace == 1,
		setups:       31,
		warmup:       time.Second,
		drain:        10 * time.Second,
		dir:          filepath.Join(*root, ".bench_build", "perfbench-run"),
		backlogBoxes: 200,
		backlogMsgs:  250,
		backlogSize:  512,
	}
	if cfg.trace {
		cfg.traceOut = filepath.Join(*root, ".bench_build", fmt.Sprintf("perfbench-trace-%s-seed%d.tsv", *workload, *seed))
	}
	if *workload == "mbox-durable" {
		// Each set-up replays the backlog; the longer warm-up lets the
		// restarted store settle (first compaction, collections of the
		// reloaded heap) before the interval starts.
		cfg.setups = 5
		cfg.warmup = 3 * time.Second
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printJSON("env", env)
	t := o.tally
	printJSON("exchanges", map[string]any{
		"seed": *seed, "attempted": t.attempted, "verified": t.verified,
		"refused": t.refused, "corrupt": t.corrupt, "duplicate": t.dup,
		"unknown": t.unknown, "missing_after_drain": t.missing,
		"error_frac": float64(t.failed()) / float64(max(t.attempted, 1)),
	})
	printJSON("detail", o.detail)
	for _, line := range o.report {
		fmt.Println("#", line)
	}
	if cfg.traceOut != "" {
		fmt.Println("# trace events written to", cfg.traceOut)
	}
	src := o.e2e
	if cfg.trace {
		src = o.layers
	}
	out := resultLine{Correct: o.correct, Attempted: t.attempted, Failed: t.failed(), Metrics: map[string]metricOut{}}
	names := make([]string, 0, len(src))
	for k := range src {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		out.Metrics[k] = metricOut{Value: src[k], Unit: unitOf(k)}
		fmt.Printf("# %-34s %14.4f %s\n", k, src[k], unitOf(k))
	}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
}

func printJSON(label string, v any) {
	b, _ := json.Marshal(v)
	fmt.Printf("# %s %s\n", label, b)
}

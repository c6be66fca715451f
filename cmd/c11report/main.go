// Command c11report is the one reader of a campaign's artifacts. It renders
// every campaign artifact (BENCH_campaign.json, c11tester's -json file) into
// its summary (campaign.Checkpoint.Summarize) and works on that. By default
// it renders the report, joined with the record directory (-record) when one
// is given: the throughput and detection-rate (Table 2) tables, the top slow
// cells with per-phase breakdowns, the tagged litmus outcome histograms,
// analyzer findings, the race first-seen timeline, the converge cells'
// convergence curves and the soundness section (all from the artifact), and
// a record index with one-command repro lines (from the record directory's
// manifest). The artifact of a shard, or of a run stopped mid-campaign,
// renders as a report marked "partial:".
//
// -equal compares two artifacts' summaries modulo Summary.Canonical, which
// strips machine-local timing: it is how the repository checks its
// byte-identity guarantees from the command line (a K-worker run against a
// serial one, a resumed run against an uninterrupted one, and a run resumed
// from K shard artifacts against the single-machine run). -compare diffs two
// artifacts for trajectory tracking: detection rates, race keys,
// weak-outcome coverage, findings and validation.
//
// Examples:
//
//	go run ./cmd/c11report -summary BENCH_campaign.json
//	go run ./cmd/c11report -summary BENCH_campaign.json -record traces/
//	go run ./cmd/c11report -equal a.json b.json
//	go run ./cmd/c11report -compare old.json new.json
//
// Exit codes: 0 success (-equal: identical; -compare: no regression); 1
// usage or IO error, or a record index that names missing trace files; 2
// -equal found the summaries different, or -compare found a regression.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"c11tester/internal/campaign"
	"c11tester/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("c11report", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		summary = fs.String("summary", "BENCH_campaign.json", "campaign artifact (c11tester -json)")
		record  = fs.String("record", "", "record directory holding manifest.json, as written by c11tester -record ('' skips the record index)")
		equal   = fs.Bool("equal", false, "compare two artifacts a.json b.json modulo Summary.Canonical; exit 0 identical, 2 different")
		compare = fs.Bool("compare", false, "diff two artifacts old.json new.json; exit 2 on a regression")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	paths := fs.Args()
	if *equal || *compare {
		if *equal == *compare || len(paths) != 2 {
			fmt.Fprintln(os.Stderr, "c11report: usage: c11report -equal a.json b.json, or c11report -compare old.json new.json")
			return 1
		}
		a, err := load(paths[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "c11report:", err)
			return 1
		}
		b, err := load(paths[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "c11report:", err)
			return 1
		}
		if *equal {
			return runEqual(paths[0], paths[1], a, b, out)
		}
		cmp := campaign.Compare(a, b)
		fmt.Fprint(out, cmp.String())
		if cmp.Regressed() {
			return 2
		}
		return 0
	}
	if len(paths) > 0 {
		fmt.Fprintf(os.Stderr, "c11report: unexpected argument %q (two artifacts go with -equal or -compare)\n", paths[0])
		return 1
	}

	sum, err := load(*summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11report:", err)
		return 1
	}
	var man *obs.Manifest
	if *record != "" {
		man, err = obs.ReadManifest(filepath.Join(*record, obs.ManifestFileName))
		if err != nil {
			fmt.Fprintln(os.Stderr, "c11report: -record:", err)
			return 1
		}
	}
	if missing := campaign.WriteReport(out, sum, man, *record); missing > 0 {
		fmt.Fprintf(os.Stderr, "c11report: -record: %d trace file(s) named by the manifest are missing from %s\n", missing, *record)
		return 1
	}
	return 0
}

// load reads a campaign artifact and renders its summary.
func load(path string) (*campaign.Summary, error) {
	ck, err := campaign.LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	return ck.Summarize(), nil
}

// runEqual compares summaries a and b, read from pathA and pathB, modulo
// Canonical and reports the first divergence when they differ.
func runEqual(pathA, pathB string, a, b *campaign.Summary, out *os.File) int {
	ja, err := json.MarshalIndent(a.Canonical(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11report:", err)
		return 1
	}
	jb, err := json.MarshalIndent(b.Canonical(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11report:", err)
		return 1
	}
	if bytes.Equal(ja, jb) {
		fmt.Fprintf(out, "identical (modulo canonicalization): %s == %s\n", pathA, pathB)
		return 0
	}
	la, lb := bytes.Split(ja, []byte("\n")), bytes.Split(jb, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			fmt.Fprintf(out, "DIFFERENT: first divergence at canonical line %d:\n  %s: %s\n  %s: %s\n",
				i+1, pathA, bytes.TrimSpace(la[i]), pathB, bytes.TrimSpace(lb[i]))
			return 2
		}
	}
	fmt.Fprintf(out, "DIFFERENT: %s (%d line(s)) vs %s (%d line(s)); one is a prefix of the other\n",
		pathA, len(la), pathB, len(lb))
	return 2
}

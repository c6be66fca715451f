// Command c11report renders the offline forensics report of a campaign: it
// joins the versioned summary artifact (BENCH_campaign.json) and the record
// directory (-record) into one view — top slow cells with per-phase
// breakdowns, the tagged litmus outcome histograms, analyzer findings, the
// race first-seen timeline, the converge cells' convergence curves (all from
// the summary), and a record index with one-command repro lines (from the
// record directory's manifest).
//
// Examples:
//
//	go run ./cmd/c11report -summary BENCH_campaign.json
//	go run ./cmd/c11report -summary BENCH_campaign.json -record traces/
//
// Exit codes: 0 success, 1 usage/IO error.
package main

import (
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
		summary = fs.String("summary", "BENCH_campaign.json", "campaign summary artifact")
		record  = fs.String("record", "", "record directory holding manifest.json, as written by c11tester -record ('' skips the record index)")
		top     = fs.Int("top", 5, "rows in the slow-cell table")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	sum, err := campaign.LoadSummary(*summary)
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
	campaign.WriteReport(out, sum, man, campaign.ReportOptions{TopSlow: *top, RecordDir: *record})
	return 0
}

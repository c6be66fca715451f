// Command c11merge compares two campaign summaries modulo
// Summary.Canonical, which strips machine-local timing. It is how the
// repository checks its byte-identity guarantees from the command line: a
// K-worker run against a serial one, a resumed run against an uninterrupted
// one, and a run resumed from K shard checkpoints (c11tester -resume
// p0.ck,p1.ck,...) against the single-machine run.
//
//	c11merge -equal a.json b.json
//
// Exit codes: 0 identical, 1 structured error (bad usage, corrupt input),
// 2 different.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"c11tester/internal/campaign"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("c11merge", flag.ContinueOnError)
	fs.SetOutput(out)
	equal := fs.Bool("equal", false, "compare two summaries modulo Summary.Canonical; exit 0 identical, 2 different")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if paths := fs.Args(); *equal && len(paths) == 2 {
		return runEqual(paths[0], paths[1], out)
	}
	fmt.Fprintln(os.Stderr, "c11merge: usage: c11merge -equal a.json b.json (shards merge with c11tester -resume p0.ck,p1.ck,...)")
	return 1
}

// runEqual compares two summaries modulo Canonical and reports the first
// divergence when they differ.
func runEqual(pathA, pathB string, out *os.File) int {
	a, err := campaign.LoadSummary(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11merge:", err)
		return 1
	}
	b, err := campaign.LoadSummary(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11merge:", err)
		return 1
	}
	ja, err := json.MarshalIndent(a.Canonical(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11merge:", err)
		return 1
	}
	jb, err := json.MarshalIndent(b.Canonical(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11merge:", err)
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

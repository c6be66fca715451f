package campaign

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Provenance identifies the build that produced an artifact: toolchain,
// module, and target. The campaign artifact (schema v5 on) embeds it
// so artifacts compared across machines or checkouts can be flagged: Compare
// warns on any skew, and resume refuses it. Every field is machine-stable (no
// wall-clock, no hostnames), so embedding it does not disturb the
// byte-identity of same-process determinism comparisons.
type Provenance struct {
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	Module        string `json:"module,omitempty"`
	ModuleVersion string `json:"module_version,omitempty"`
}

// BuildProvenance reads the running binary's provenance.
func BuildProvenance() *Provenance {
	p := &Provenance{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		p.Module = bi.Main.Path
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			p.ModuleVersion = bi.Main.Version
		}
	}
	return p
}

// Skew lists the fields on which two provenances disagree, rendered as
// "field: old → new" lines; empty when they match. Nil-safe: a missing side
// (pre-v5 artifact) yields no skew — there is nothing to compare.
func (p *Provenance) Skew(o *Provenance) []string {
	if p == nil || o == nil {
		return nil
	}
	var out []string
	diff := func(name, a, b string) {
		if a != b {
			out = append(out, fmt.Sprintf("%s: %s → %s", name, a, b))
		}
	}
	diff("go version", p.GoVersion, o.GoVersion)
	diff("goos", p.GOOS, o.GOOS)
	diff("goarch", p.GOARCH, o.GOARCH)
	diff("module", p.Module, o.Module)
	diff("module version", p.ModuleVersion, o.ModuleVersion)
	return out
}

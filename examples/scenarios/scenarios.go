// Package scenarios ships the built-in scenario specs: three of this
// directory's JSON files, embedded, which `vcebench -name` runs and
// experiment E14 sweeps. The files are the only copy — `vcebench -spec
// examples/scenarios/<name>.json` runs the same scenario as `-name <name>`.
package scenarios

import (
	"embed"
	"fmt"
	"strings"

	"vce/internal/scenario"
)

//go:embed faulty-fleet.json hetero-baseline.json owner-churn.json
var builtins embed.FS

// Builtin parses the named built-in spec.
func Builtin(name string) (*scenario.Spec, error) {
	data, err := builtins.ReadFile(name + ".json")
	if err != nil {
		return nil, fmt.Errorf("scenario: no built-in scenario %q (have %v)", name, Names())
	}
	return scenario.Parse(data)
}

// Names lists the built-in scenario names, sorted.
func Names() []string {
	entries, _ := builtins.ReadDir(".")
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = strings.TrimSuffix(e.Name(), ".json")
	}
	return names
}

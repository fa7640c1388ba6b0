//go:build mutants

package mutants

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var failureLine = regexp.MustCompile(`(?m)^vcebench check: seed (\d+): property (\S+) FAILED: (?:mode=([a-z-]+):)?`)

// TestMutants builds every row of the table as a broken engine and sweeps it
// with `vcebench check -seeds 25` (see the package doc).
func TestMutants(t *testing.T) {
	root := repoRoot(t)
	for _, m := range table {
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(root, filepath.FromSlash(m.file))
			src := rowSource(t, root, m)
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.file))
			if err := os.WriteFile(mutated, []byte(strings.Replace(src, m.old, m.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayPath := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			bin := filepath.Join(dir, "vcebench")
			build := exec.Command("go", "build", "-overlay", overlayPath, "-o", bin, "./cmd/vcebench")
			build.Dir = root
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("mutant does not build: %v\n%s", err, out)
			}
			repros := filepath.Join(dir, "repros")
			check := exec.Command(bin, "check", "-seeds", "25", "-q", "-out", repros)
			var stderr strings.Builder
			check.Stderr = &stderr
			err = check.Run()
			var exit *exec.ExitError
			if err != nil && !errors.As(err, &exit) {
				t.Fatal(err)
			}

			// What died where: "property mode" → seeds.
			deaths := map[string]int{}
			perSeed := map[string]int{}
			for _, f := range failureLine.FindAllStringSubmatch(stderr.String(), -1) {
				deaths[strings.TrimSpace(f[2]+" "+f[3])]++
				perSeed[f[1]]++
			}
			var summary []string
			for where, n := range deaths {
				summary = append(summary, fmt.Sprintf("%s ×%d", where, n))
			}
			sort.Strings(summary)
			files, _ := os.ReadDir(repros)
			t.Logf("killed on %d of 25 seeds, %d repro files: %s", len(perSeed), len(files), strings.Join(summary, ", "))

			if m.wantMode == "" && m.wantProperty == "" {
				if err != nil {
					t.Fatalf("expected survivor now dies — move the row and update the table in DESIGN.md §6:\n%s", stderr.String())
				}
				return
			}
			if err == nil {
				t.Fatalf("lost kill: no property reports this mutant any more")
			}
			want := "execution-identity " + m.wantMode
			if m.wantProperty != "" {
				want = m.wantProperty
			}
			if len(deaths) != 1 || deaths[want] == 0 {
				t.Errorf("want every failure to be %q, got %s", want, strings.Join(summary, ", "))
			}
			for seed, n := range perSeed {
				if n != 1 {
					t.Errorf("seed %s reported %d failures for one defect", seed, n)
				}
			}
			if len(files) != len(perSeed) {
				t.Errorf("%d repro files for %d failing seeds", len(files), len(perSeed))
			}
		})
	}
}

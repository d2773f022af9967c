package sched

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImportBoundary keeps the control plane free of the scenario
// machinery: the fault injector, the workload generators and the
// staging daemons are what the replays (internal/replay) drive the
// scheduler with, so no non-test file here may import them.
func TestImportBoundary(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	forbidden := map[string]bool{
		"detournet/internal/faults":   true,
		"detournet/internal/workload": true,
		"detournet/internal/rsyncx":   true,
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); forbidden[path] {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}

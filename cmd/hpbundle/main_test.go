package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/gin_table.txt from the current build")

const ginTablePath = "testdata/gin_table.txt"

// TestGinTablePinned pins gin's table row byte for byte: its function
// count, Bundle entries, tagged instructions and text size. Refresh
// with -update only alongside an intended change to the workload.
func TestGinTablePinned(t *testing.T) {
	var buf bytes.Buffer
	if err := writeTable(&buf, []string{"gin"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.FromSlash(ginTablePath)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading pinned table (refresh with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("gin table:\n%s\npinned:\n%s", buf.Bytes(), want)
	}
}

package workloads_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	_ "hprefetch/internal/microsvc" // registers the chain-* presets
	"hprefetch/internal/workloads"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/image_digests.json from the current build path")

const imageDigestsPath = "testdata/image_digests.json"

// TestLinkedImageDigests pins the SHA-256 of every workload's linked
// image — text layout, symbols and the .bundles segment Algorithm 1
// produces — so a faster generator, linker or analysis must leave every
// binary byte-identical. Refresh with -update only alongside an
// intended change to what a workload is.
func TestLinkedImageDigests(t *testing.T) {
	got := map[string]string{}
	for _, name := range workloads.AllSorted() {
		b, err := workloads.Build(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(b.Linked.Image.Marshal())
		got[name] = hex.EncodeToString(sum[:])
	}
	path := filepath.FromSlash(imageDigestsPath)
	if *updateDigests {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d images", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading digests (refresh with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d workloads, %s pins %d; refresh with -update", len(got), path, len(want))
	}
	for name, sum := range want {
		if got[name] != sum {
			t.Errorf("%s: linked image sha256 %s, pinned %s", name, got[name], sum)
		}
	}
}

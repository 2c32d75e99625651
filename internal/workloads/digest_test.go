package workloads_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hprefetch/internal/binfmt"
	"hprefetch/internal/callgraph"
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
		l, err := workloads.Link(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(l.Image.Marshal())
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

// TestBuiltSegmentMatchesLinkedImage: the .bundles segment a memoised
// workload gives back from its loaded program is exactly the one the
// linker wrote into the image, for every workload, so the fault path
// that perturbs it sees what it saw when Built kept the image.
func TestBuiltSegmentMatchesLinkedImage(t *testing.T) {
	for _, name := range workloads.AllSorted() {
		l, err := workloads.Link(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := workloads.Build(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := b.Loaded.Segment(); !reflect.DeepEqual(got, l.Image.Bundles) {
			t.Errorf("%s: Loaded.Segment() has %d entries and %d tags, the linked image %d and %d",
				name, len(got.Entries), len(got.TaggedAddrs), len(l.Image.Bundles.Entries), len(l.Image.Bundles.TaggedAddrs))
		}
	}
}

// TestBuiltKeepsNoLinkState: no binary image, call graph or Bundle
// analysis is reachable from the type of a memoised workload, so none
// of them outlives Build.
func TestBuiltKeepsNoLinkState(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf((*binfmt.Image)(nil)):       true,
		reflect.TypeOf((*callgraph.Graph)(nil)):    true,
		reflect.TypeOf((*callgraph.Analysis)(nil)): true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(t reflect.Type, path string) []string
	walk = func(ty reflect.Type, path string) []string {
		if banned[ty] {
			return []string{path + " " + ty.String()}
		}
		if seen[ty] {
			return nil
		}
		seen[ty] = true
		var found []string
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			found = walk(ty.Elem(), path+"[]")
		case reflect.Map:
			found = append(walk(ty.Key(), path+"{key}"), walk(ty.Elem(), path+"{}")...)
		case reflect.Struct:
			for i := range ty.NumField() {
				found = append(found, walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)...)
			}
		case reflect.Func:
			for i := range ty.NumIn() {
				found = append(found, walk(ty.In(i), path+"(in)")...)
			}
			for i := range ty.NumOut() {
				found = append(found, walk(ty.Out(i), path+"(out)")...)
			}
		}
		return found
	}
	for _, f := range walk(reflect.TypeOf(workloads.Built{}), "Built") {
		t.Errorf("link-time state reachable from a memoised workload: %s", f)
	}
}

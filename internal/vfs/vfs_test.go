package vfs

import (
	"fmt"
	"testing"
	"testing/quick"
)

func newFS(t *testing.T) *FS {
	t.Helper()
	fs := New()
	if err := fs.Create("/apps/a.vce", 1000, "host1"); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestCreateValidation(t *testing.T) {
	fs := New()
	if err := fs.Create("", 1, "h"); err == nil {
		t.Fatal("empty path accepted")
	}
	if err := fs.Create("/f", -1, "h"); err == nil {
		t.Fatal("negative size accepted")
	}
	if err := fs.Create("/f", 1, ""); err == nil {
		t.Fatal("empty origin accepted")
	}
	if err := fs.Create("/f", 1, "h"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/f", 1, "h"); err == nil {
		t.Fatal("duplicate create accepted")
	}
}

func TestStat(t *testing.T) {
	fs := newFS(t)
	f, ok := fs.Stat("/apps/a.vce")
	if !ok || f.Path != "/apps/a.vce" || f.Size != 1000 {
		t.Fatalf("stat = %+v, %v", f, ok)
	}
	if _, ok := fs.Stat("/nope"); ok {
		t.Fatal("stat of missing file succeeded")
	}
}

func TestReplicateMovesBytesOnce(t *testing.T) {
	fs := newFS(t)
	n, err := fs.Replicate("/apps/a.vce", "host2")
	if err != nil || n != 1000 {
		t.Fatalf("first replicate = %d, %v", n, err)
	}
	n, err = fs.Replicate("/apps/a.vce", "host2")
	if err != nil || n != 0 {
		t.Fatalf("second replicate = %d, %v; want 0 (already held)", n, err)
	}
	sites := fs.Sites("/apps/a.vce")
	if len(sites) != 2 || sites[0] != "host1" || sites[1] != "host2" {
		t.Fatalf("sites = %v", sites)
	}
	if !fs.HasReplica("/apps/a.vce", "host2") || fs.HasReplica("/apps/a.vce", "host3") || fs.HasReplica("/nope", "host1") {
		t.Fatal("HasReplica disagrees with Sites")
	}
}

func TestStageBytes(t *testing.T) {
	fs := newFS(t)
	if err := fs.Create("/apps/b.dat", 500, "host1"); err != nil {
		t.Fatal(err)
	}
	n, err := fs.StageBytes([]string{"/apps/a.vce", "/apps/b.dat"}, "host2")
	if err != nil || n != 1500 {
		t.Fatalf("stage bytes = %d, %v", n, err)
	}
	moved, err := fs.Stage([]string{"/apps/a.vce", "/apps/b.dat"}, "host2")
	if err != nil || moved != 1500 {
		t.Fatalf("stage moved = %d, %v", moved, err)
	}
	n, err = fs.StageBytes([]string{"/apps/a.vce", "/apps/b.dat"}, "host2")
	if err != nil || n != 0 {
		t.Fatalf("stage bytes after staging = %d, %v", n, err)
	}
}

func TestStageMissingFileErrors(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.StageBytes([]string{"/ghost"}, "host2"); err == nil {
		t.Fatal("staging missing file did not error")
	}
	if _, err := fs.Stage([]string{"/ghost"}, "host2"); err == nil {
		t.Fatal("Stage of missing file did not error")
	}
}

func TestPaths(t *testing.T) {
	fs := newFS(t)
	if err := fs.Create("/z", 1, "h"); err != nil {
		t.Fatal(err)
	}
	paths := fs.Paths()
	if len(paths) != 2 || paths[0] != "/apps/a.vce" {
		t.Fatalf("paths = %v", paths)
	}
}

func TestReplicateMissing(t *testing.T) {
	fs := New()
	if _, err := fs.Replicate("/nope", "h"); err == nil {
		t.Fatal("replicate of missing file accepted")
	}
}

func TestPropertyStageThenCheck(t *testing.T) {
	// After Stage(paths, site), StageBytes(paths, site) is always zero.
	f := func(sizes []uint16, site uint8) bool {
		fs := New()
		var paths []string
		for i, sz := range sizes {
			if i >= 20 {
				break
			}
			p := string(rune('a'+i%26)) + "/f"
			if err := fs.Create(p, int64(sz), "origin"); err != nil {
				return false
			}
			paths = append(paths, p)
		}
		dst := string(rune('A' + site%26))
		if _, err := fs.Stage(paths, dst); err != nil {
			return false
		}
		n, err := fs.StageBytes(paths, dst)
		return err == nil && n == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReplication(t *testing.T) {
	fs := newFS(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			_, _ = fs.Replicate("/apps/a.vce", fmt.Sprintf("host%d", i))
		}
	}()
	for i := 0; i < 300; i++ {
		fs.Sites("/apps/a.vce")
		fs.HasReplica("/apps/a.vce", "host7")
		_, _ = fs.StageBytes([]string{"/apps/a.vce"}, "host7")
	}
	<-done
}

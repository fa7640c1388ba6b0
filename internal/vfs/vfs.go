// Package vfs is a simulated distributed file system: named files with sizes,
// replicated across sites (machines). It stands in for the "LANs and
// distributed file systems [that] are becoming commonplace" the VCE design
// exploits (§2), and is the substrate for input-file staging and
// anticipatory file replication (§4.5).
//
// vfs models placement and cost, not contents: what matters to every
// scheduling claim in the paper is where replicas are and how many bytes a
// stage-in must move. Files are written once, at Create, so every replica
// is current. Checkpoint records are not files here: they live on their
// task (sim.Task.Checkpoint).
package vfs

import (
	"fmt"
	"sort"
	"sync"
)

// File describes one logical file.
type File struct {
	// Path is the logical file name ("/apps/snow/predictor.vce").
	Path string
	// Size is the file size in bytes.
	Size int64
}

type fileState struct {
	File
	replicas map[string]struct{} // sites holding a copy
}

// FS is a thread-safe simulated distributed file system.
type FS struct {
	mu    sync.RWMutex
	files map[string]*fileState
}

// New returns an empty file system.
func New() *FS {
	return &FS{files: make(map[string]*fileState)}
}

// Create registers a file with its initial replica at site origin.
func (fs *FS) Create(path string, size int64, origin string) error {
	if path == "" {
		return fmt.Errorf("vfs: empty path")
	}
	if size < 0 {
		return fmt.Errorf("vfs: negative size for %q", path)
	}
	if origin == "" {
		return fmt.Errorf("vfs: empty origin site for %q", path)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, exists := fs.files[path]; exists {
		return fmt.Errorf("vfs: %q already exists", path)
	}
	fs.files[path] = &fileState{
		File:     File{Path: path, Size: size},
		replicas: map[string]struct{}{origin: {}},
	}
	return nil
}

// Stat returns the file metadata.
func (fs *FS) Stat(path string) (File, bool) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return File{}, false
	}
	return f.File, true
}

// Replicate copies path to site dst, returning the number of bytes moved.
// Copying onto a site that already holds a replica moves zero bytes.
func (fs *FS) Replicate(path string, dst string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("vfs: replicate of missing file %q", path)
	}
	if _, has := f.replicas[dst]; has {
		return 0, nil
	}
	f.replicas[dst] = struct{}{}
	return f.Size, nil
}

// Sites returns the sites holding a replica, sorted.
func (fs *FS) Sites(path string) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(f.replicas))
	for site := range f.replicas {
		out = append(out, site)
	}
	sort.Strings(out)
	return out
}

// HasReplica reports whether site holds a replica of path.
func (fs *FS) HasReplica(path string, site string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return false
	}
	_, has := f.replicas[site]
	return has
}

// StageBytes returns how many bytes must be moved so that site holds
// replicas of every path. Missing files are an error: staging an application
// whose inputs do not exist anywhere is a deployment bug worth surfacing.
func (fs *FS) StageBytes(paths []string, site string) (int64, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var total int64
	for _, p := range paths {
		f, ok := fs.files[p]
		if !ok {
			return 0, fmt.Errorf("vfs: staging missing file %q", p)
		}
		if _, has := f.replicas[site]; !has {
			total += f.Size
		}
	}
	return total, nil
}

// Stage replicates every path to site, returning total bytes moved.
func (fs *FS) Stage(paths []string, site string) (int64, error) {
	var total int64
	for _, p := range paths {
		n, err := fs.Replicate(p, site)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// Paths returns every logical path, sorted.
func (fs *FS) Paths() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

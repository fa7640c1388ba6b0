// Package vfs is a simulated distributed file system: named files with sizes
// and versions, replicated across sites (machines). It stands in for the
// "LANs and distributed file systems [that] are becoming commonplace" the VCE
// design exploits (§2), and is the substrate for input-file staging,
// checkpoint records (§4.4) and anticipatory file replication (§4.5).
//
// vfs models placement and cost, not contents: what matters to every
// scheduling claim in the paper is where replicas are and how many bytes a
// stage-in must move.
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
	// Version counts writes; replicas carry the version they copied.
	Version int
}

type fileState struct {
	File
	replicas map[string]int // site -> replica version
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
		File:     File{Path: path, Size: size, Version: 1},
		replicas: map[string]int{origin: 1},
	}
	return nil
}

// Reset empties the file system in place, keeping the map storage for
// reuse. A reset FS is indistinguishable from a New one to every query:
// recycled simulations call this so checkpoint records and staged files
// never leak from one simulated world into the next.
func (fs *FS) Reset() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	clear(fs.files)
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

// Write records an update to the file performed at site, bumping the version.
// Site must already hold a replica (you write where you run); other replicas
// become stale.
func (fs *FS) Write(path string, site string, newSize int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return fmt.Errorf("vfs: write to missing file %q", path)
	}
	if _, has := f.replicas[site]; !has {
		return fmt.Errorf("vfs: site %q has no replica of %q to write", site, path)
	}
	if newSize >= 0 {
		f.Size = newSize
	}
	f.Version++
	f.replicas[site] = f.Version
	return nil
}

// Replicate copies the current version of path to site dst, returning the
// number of bytes moved. Copying onto an up-to-date replica moves zero bytes.
func (fs *FS) Replicate(path string, dst string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("vfs: replicate of missing file %q", path)
	}
	if v, has := f.replicas[dst]; has && v == f.Version {
		return 0, nil
	}
	f.replicas[dst] = f.Version
	return f.Size, nil
}

// Remove deletes the file and all replicas.
func (fs *FS) Remove(path string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.files, path)
}

// Sites returns the sites holding a current replica, sorted.
func (fs *FS) Sites(path string) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return nil
	}
	var out []string
	for site, v := range f.replicas {
		if v == f.Version {
			out = append(out, site)
		}
	}
	sort.Strings(out)
	return out
}

// HasCurrent reports whether site holds an up-to-date replica of path.
func (fs *FS) HasCurrent(path string, site string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return false
	}
	v, has := f.replicas[site]
	return has && v == f.Version
}

// StageBytes returns how many bytes must be moved so that site holds current
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
		if v, has := f.replicas[site]; !has || v != f.Version {
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

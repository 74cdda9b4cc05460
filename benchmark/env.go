package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// environment is the provenance printed with every result.
type environment struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	SourceHash  string `json:"source_sha256"`
	DataDirFS   string `json:"data_dir_fs"`
	FlushPolicy string `json:"flush_policy"`
}

func readEnvironment(root, dataDir string) environment {
	return environment{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Commit:      gitCommit(root),
		SourceHash:  sourceHash(root),
		DataDirFS:   filesystem(dataDir),
		FlushPolicy: "strict: every commit waits for the group-commit fsync",
	}
}

// gitCommit returns the checked-out commit, or "none" outside a git
// working tree (a benchmark checkout is an export without .git).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash identifies the code under test when no commit is available:
// a SHA-256 over the paths and contents of every .go, go.mod and go.sum
// file under root, skipping hidden directories.
func sourceHash(root string) string {
	var files []string
	_ = filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return nil
		}
		if fi.IsDir() && path != root && strings.HasPrefix(fi.Name(), ".") {
			return filepath.SkipDir
		}
		name := fi.Name()
		if fi.Mode().IsRegular() && (strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\n", rel)
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		_, _ = io.Copy(h, f)
		_ = f.Close()
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// filesystem names the filesystem holding dir.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

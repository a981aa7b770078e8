package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp identifies what a result was measured on and from. Results are
// only comparable when their machine() strings are equal.
type stamp struct {
	GoVersion  string `json:"go"`
	Platform   string `json:"platform"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Seed       uint64 `json:"seed"`
}

func (s stamp) machine() string {
	return fmt.Sprintf("go=%s platform=%s cpu=%q nproc=%d gomaxprocs=%d", s.GoVersion, s.Platform, s.CPU, s.NumCPU, s.GOMAXPROCS)
}

func (s stamp) String() string {
	return fmt.Sprintf("%s commit=%s source=%.12s seed=%d", s.machine(), s.Commit, s.Source, s.Seed)
}

func machineStamp(root string, seed uint64) stamp {
	return stamp{
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit(root),
		Source:     sourceDigest(root),
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out commit, or "unknown" outside a git checkout;
// the source digest identifies the code either way.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and every Go file under cmd/ and internal/:
// the code the benchmark builds and measures.
func sourceDigest(root string) string {
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

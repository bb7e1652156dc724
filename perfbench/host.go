package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// host identifies where and on what code a report was produced. Cores,
// GOMAXPROCS, Go version and platform decide whether two reports are
// comparable; commit and source identify the code (source is a digest
// of the checkout's Go sources, so it is known even outside a git
// repository, where commit reads "unknown").
type host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
	Commit     string `json:"commit"`
	Source     string `json:"source"`
}

func readHost() host {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return host{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit,
		Source:     sourceDigest("."),
	}
}

func (h host) String() string {
	return fmt.Sprintf("cores=%d gomaxprocs=%d go=%s platform=%s commit=%s source=%s",
		h.Cores, h.GOMAXPROCS, h.Go, h.Platform, h.Commit, h.Source)
}

// differs lists the host properties that make two reports incomparable.
func (h host) differs(o host) []string {
	var d []string
	if h.Cores != o.Cores {
		d = append(d, fmt.Sprintf("cores %d vs %d", h.Cores, o.Cores))
	}
	if h.GOMAXPROCS != o.GOMAXPROCS {
		d = append(d, fmt.Sprintf("gomaxprocs %d vs %d", h.GOMAXPROCS, o.GOMAXPROCS))
	}
	if h.Go != o.Go {
		d = append(d, fmt.Sprintf("go %s vs %s", h.Go, o.Go))
	}
	if h.Platform != o.Platform {
		d = append(d, fmt.Sprintf("platform %s vs %s", h.Platform, o.Platform))
	}
	return d
}

// sourceDigest hashes every .go file and go.mod under root (skipping
// hidden directories such as the build output), in walk order.
func sourceDigest(root string) string {
	sum := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(sum, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		sum.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(sum.Sum(nil))[:12]
}

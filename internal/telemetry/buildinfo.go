package telemetry

import (
	"runtime"
	"runtime/debug"
)

// BuildInfo identifies the running binary and its host — the metadata that
// makes performance numbers comparable across machines and commits. It
// rides in /v1/stats, in zipflm-bench -json reports and in zipflm-perf
// baselines.
type BuildInfo struct {
	// Version is the main module version ("(devel)" for source builds).
	Version string `json:"version"`
	// Commit is the VCS revision the binary was built from ("unknown"
	// when the build carried no VCS stamp, e.g. `go test` binaries).
	Commit string `json:"commit"`
	// Dirty reports uncommitted changes at build time.
	Dirty bool `json:"dirty,omitempty"`
	// Go is the toolchain version; GOOS/GOARCH the target platform.
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// GOMAXPROCS and NumCPU describe the host's effective and physical
	// parallelism at collection time.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"numcpu"`
}

// CollectBuildInfo reads the binary's build metadata and the host shape.
func CollectBuildInfo() BuildInfo {
	info := BuildInfo{
		Version:    "(devel)",
		Commit:     "unknown",
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	if bi.Main.Version != "" {
		info.Version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.Commit = s.Value
		case "vcs.modified":
			info.Dirty = s.Value == "true"
		}
	}
	return info
}

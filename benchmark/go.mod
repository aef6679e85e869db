// The benchmark is a module of its own so the repository's tier-1
// `go build ./... && go test ./...` never depends on it. The module path sits
// under zipflm/ so Go's internal-package rule lets it import
// zipflm/internal/...; the replace points at the repository root.
module zipflm/benchmark

go 1.21

require zipflm v0.0.0

replace zipflm => ../

package serve

import (
	"sync"
	"time"

	"zipflm/internal/rng"
	"zipflm/internal/sampling"
)

// Closed-loop load generator: C concurrent clients, each submitting its
// next request only after the previous one completes — the canonical
// serving-benchmark harness (offered load adapts to service rate, so the
// system is measured at its own saturation point, not at an arbitrary open-
// loop arrival rate).
//
// Request popularity follows a Zipf law over a pool of distinct prompts,
// mirroring the paper's traffic model: rank r is requested with probability
// ∝ 1/(r+1)^s. Every request for rank r is byte-identical (same prompt,
// same seed derived from r), so the result cache's hit rate directly
// measures how much of a power-law workload a bounded cache absorbs — the
// serving-side mirror of the paper's unique-words argument, and PerRank
// lets internal/powerlaw verify the generated load really follows the law
// it claims.

// LoadConfig tunes a load run.
type LoadConfig struct {
	// Clients is the closed-loop concurrency (default 4).
	Clients int
	// Requests is the total request count across all clients.
	Requests int
	// PromptPool is the number of distinct prompts (Zipf ranks).
	PromptPool int
	// ZipfS is the popularity exponent (default 1.1, the corpus
	// generators' default).
	ZipfS float64
	// Vocab bounds the synthesized prompt tokens; must match the model.
	Vocab int
	// Tokens is N per request (default 16).
	Tokens int
	// Opts is the decode configuration every request uses.
	Opts sampling.DecodeOpts
	// Seed makes the whole load deterministic.
	Seed uint64
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.PromptPool <= 0 {
		c.PromptPool = 64
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.Tokens <= 0 {
		c.Tokens = 16
	}
	return c
}

// Prompts are ragged: minPromptLen to maxPromptLen tokens.
const minPromptLen, maxPromptLen = 2, 8

// PromptForRank synthesizes rank r's prompt deterministically: length and
// tokens depend only on (cfg.Seed, r), so replays of a rank are exact
// repeats — the property that makes the result cache effective.
func (c LoadConfig) PromptForRank(rank int) []int {
	c = c.withDefaults()
	if c.Vocab <= 0 {
		panic("serve: LoadConfig.Vocab must be set to the model's vocabulary size")
	}
	r := rng.New(c.Seed ^ (0x9e3779b97f4a7c15 * uint64(rank+1)))
	n := minPromptLen + r.Intn(maxPromptLen-minPromptLen+1)
	p := make([]int, n)
	for i := range p {
		p[i] = r.Intn(c.Vocab)
	}
	return p
}

// SeedForRank derives rank r's request seed (any fixed function of r works;
// it just has to repeat).
func (c LoadConfig) SeedForRank(rank int) uint64 {
	return c.Seed*0x100000001b3 + uint64(rank)*2654435761 + 1
}

// LoadReport summarizes one closed-loop run.
type LoadReport struct {
	// Wall is the whole run's duration; Issued the requests submitted.
	Wall   time.Duration
	Issued int
	// Completed / Shed partition the outcomes; Failed counts unexpected
	// errors (should be zero).
	Completed, Shed, Failed int
	// TokensOut sums delivered tokens (cache hits included).
	TokensOut int
	// CacheHits / PrefixHits count per-request flags on completions.
	CacheHits, PrefixHits int
	// PerRank[r] is how many requests drew rank r — the empirical
	// popularity histogram for the power-law fit.
	PerRank []int
}

// TokensPerSecond is delivered-token throughput over the run.
func (r LoadReport) TokensPerSecond() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.TokensOut) / r.Wall.Seconds()
}

// RequestsPerSecond is completed-request throughput over the run.
func (r LoadReport) RequestsPerSecond() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Wall.Seconds()
}

// RunLoad drives the server with cfg.Requests closed-loop requests and
// returns the aggregate report. The rank sequence is drawn up front from a
// single Zipf stream, so the issued workload — PerRank, and with it the
// power-law fit and the cache's hit opportunity — is deterministic given
// cfg.Seed no matter how the scheduler interleaves clients. Which client
// issues which request, and therefore exact timings, still vary; response
// bytes never do.
func RunLoad(s *Server, cfg LoadConfig) LoadReport {
	cfg = cfg.withDefaults()
	if cfg.Vocab <= 0 {
		// Fail in the caller's goroutine, not inside a client goroutine
		// where the panic would be unrecoverable for the caller.
		panic("serve: LoadConfig.Vocab must be set to the model's vocabulary size")
	}
	zipf := rng.NewZipf(rng.New(cfg.Seed+13), cfg.PromptPool, cfg.ZipfS)
	ranks := make([]int, cfg.Requests)
	for i := range ranks {
		ranks[i] = zipf.Next()
	}
	var (
		mu     sync.Mutex
		report = LoadReport{PerRank: make([]int, cfg.PromptPool)}
		next   int // requests handed out
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= cfg.Requests {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				rank := ranks[i]
				req := Request{
					Prompt: cfg.PromptForRank(rank),
					N:      cfg.Tokens,
					Opts:   cfg.Opts,
					Seed:   cfg.SeedForRank(rank),
				}
				res, err := s.Submit(req)

				mu.Lock()
				report.Issued++
				report.PerRank[rank]++
				switch {
				case err == nil:
					report.Completed++
					report.TokensOut += len(res.Tokens)
					if res.CacheHit {
						report.CacheHits++
					}
					if res.PrefixHit {
						report.PrefixHits++
					}
				case err == ErrOverloaded:
					report.Shed++
				default:
					report.Failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	report.Wall = time.Since(start)
	return report
}

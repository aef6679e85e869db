//go:build amd64

package optim

import "zipflm/internal/cpu"

// useAdamAsm gates the AVX kernel behind Adam.Step. It is set once from
// CPUID; tests clear it to run the portable loop on the same host.
var useAdamAsm = cpu.AVX

// adamAVX is adamGo over the first n elements, n a positive multiple of 8.
//
//go:noescape
func adamAVX(value, grad, m, v *float32, n int, k *adamConsts, lr float32)

//go:build !amd64

package optim

// useAdamAsm: no assembly kernel on this architecture; Adam.Step always runs
// the portable adamGo.
var useAdamAsm = false

func adamAVX(value, grad, m, v *float32, n int, k *adamConsts, lr float32) {
	panic("optim: adamAVX unavailable on this architecture")
}

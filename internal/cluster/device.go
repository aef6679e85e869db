// Package cluster simulates the paper's GPU cluster: a set of devices, one
// goroutine per rank, each with a byte-accurate memory accountant. The
// paper's Table II hardware (GeForce GTX Titan X, 12 GB HBM2, 6.1 TFLOP/s
// peak) is the default device profile. Time is not a device's: the step is
// bulk-synchronous, so the simulator prices it on one vclock.Clock that
// the trainer or the weak-scaling experiment owns.
//
// The accountant is what lets the reproduction show the paper's central
// scaling failure honestly: the baseline ALLGATHER exchange allocates
// Θ(G·K·D) scratch per GPU and runs out of the 12 GB budget beyond 24 GPUs
// (Tables III and IV), while the uniqueness exchange stays near-flat.
package cluster

import (
	"fmt"
	"sync"
)

// ErrOutOfMemory is returned when an allocation exceeds device capacity.
// It mirrors the "*" entries (out of GPU memory) in Tables III and IV.
type ErrOutOfMemory struct {
	Device   int
	Want     int64
	Live     int64
	Capacity int64
}

func (e *ErrOutOfMemory) Error() string {
	return fmt.Sprintf("cluster: device %d out of memory (want %d, live %d, capacity %d)",
		e.Device, e.Want, e.Live, e.Capacity)
}

// Device is one simulated GPU's memory accountant. Methods are safe for
// use from the device's own rank goroutine; the simulator gives each rank
// exclusive ownership of its device.
type Device struct {
	// ID is the rank of this device in the cluster.
	ID int
	// Capacity is the memory budget in bytes (0 = unlimited).
	Capacity int64

	mu   sync.Mutex
	live int64
	peak int64
}

// NewDevice returns a device with the given memory capacity in bytes;
// capacity 0 disables the OOM check (useful in unit tests).
func NewDevice(id int, capacity int64) *Device {
	return &Device{ID: id, Capacity: capacity}
}

// Alloc records an allocation of n bytes, returning ErrOutOfMemory when the
// budget would be exceeded. The bytes are logical — callers may or may not
// materialize a real Go slice of that size (full-paper-scale experiments
// account tens of GB without allocating them).
func (d *Device) Alloc(n int64) error {
	if n < 0 {
		panic("cluster: negative allocation")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Capacity > 0 && d.live+n > d.Capacity {
		return &ErrOutOfMemory{Device: d.ID, Want: n, Live: d.live, Capacity: d.Capacity}
	}
	d.live += n
	if d.live > d.peak {
		d.peak = d.live
	}
	return nil
}

// Free releases n previously allocated bytes.
func (d *Device) Free(n int64) {
	if n < 0 {
		panic("cluster: negative free")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.live -= n
	if d.live < 0 {
		panic(fmt.Sprintf("cluster: device %d freed more than allocated", d.ID))
	}
}

// Live returns the bytes currently allocated.
func (d *Device) Live() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.live
}

// Peak returns the high-water mark of allocated bytes.
func (d *Device) Peak() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peak
}

// Cluster is a fixed set of devices executed as one goroutine per rank.
type Cluster struct {
	Devices []*Device
}

// New returns a cluster of g devices each with the given memory capacity.
func New(g int, capacity int64) *Cluster {
	if g <= 0 {
		panic("cluster: need at least one device")
	}
	c := &Cluster{Devices: make([]*Device, g)}
	for i := range c.Devices {
		c.Devices[i] = NewDevice(i, capacity)
	}
	return c
}

// Run executes fn concurrently on every rank and waits for all to finish.
// The first non-nil error (by rank order) is returned; other ranks still run
// to completion so collective operations they participate in do not deadlock.
func (c *Cluster) Run(fn func(rank int, dev *Device) error) error {
	errs := make([]error, len(c.Devices))
	var wg sync.WaitGroup
	for r, d := range c.Devices {
		wg.Add(1)
		go func(rank int, dev *Device) {
			defer wg.Done()
			errs[rank] = fn(rank, dev)
		}(r, d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MaxPeak returns the largest per-device peak across the cluster, i.e. the
// "peak GPU memory in use" number §V-A reports.
func (c *Cluster) MaxPeak() int64 {
	var m int64
	for _, d := range c.Devices {
		if p := d.Peak(); p > m {
			m = p
		}
	}
	return m
}

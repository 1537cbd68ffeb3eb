package simgpu

// MemoElided reports how many blocks this device's memoized launches
// replayed instead of scheduling.
func (d *Device) MemoElided() int64 { return d.memoElided }

package main

// cpuid executes the CPUID instruction for a leaf and sub-leaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// cacheSizes returns the sizes in bytes of the L2 and L3 caches of the
// core the caller runs on, from CPUID's deterministic cache parameters
// (leaf 4, or 0x8000001D on AMD); 0 for a level CPUID does not describe.
func cacheSizes() (l2, l3 uint64) {
	maxLeaf, vendor, _, _ := cpuid(0, 0)
	leaf := uint32(4)
	if vendor == 0x68747541 { // "Auth" of AuthenticAMD
		leaf = 0x8000001D
		if maxExt, _, _, _ := cpuid(0x80000000, 0); maxExt < leaf {
			return 0, 0
		}
	} else if maxLeaf < leaf {
		return 0, 0
	}
	for sub := uint32(0); sub < 16; sub++ {
		a, b, c, _ := cpuid(leaf, sub)
		kind := a & 0x1f // 0 none left, 1 data, 2 instruction, 3 unified
		if kind == 0 {
			break
		}
		if kind == 2 {
			continue
		}
		ways, partitions, line, sets := b>>22+1, (b>>12)&0x3ff+1, b&0xfff+1, c+1
		size := uint64(ways) * uint64(partitions) * uint64(line) * uint64(sets)
		switch (a >> 5) & 7 {
		case 2:
			l2 = size
		case 3:
			l3 = size
		}
	}
	return l2, l3
}

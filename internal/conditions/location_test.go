package conditions

import (
	"fmt"
	"math/rand/v2"
	"net"
	"regexp"
	"strings"
	"testing"
)

// FuzzAddressLanguage holds each CIDR's expression (cidrExpr) to the
// location condition's own reading: a string is in it exactly when
// net.ParseIP reads it as an address the block Contains. Blocks are
// IPv4, IPv6 and IPv4-mapped IPv6, /0 to /32 or /128; the strings are
// spellings of addresses in and near the block (zero runs compressed
// anywhere, leading zeros, either case, a dotted tail) and the
// fuzzer's own, each also cut and spliced.
func FuzzAddressLanguage(f *testing.F) {
	for _, s := range []struct {
		kind, ones uint8
		ip         string
	}{
		{0, 0, "0.0.0.0"}, {0, 32, "192.168.1.7"}, {0, 16, "192.168.0.0"}, {0, 8, "10.0.0.0"},
		{1, 0, "::"}, {1, 128, "2001:db8::1"}, {1, 64, "2001:db8::"}, {1, 80, "::"}, {1, 95, "::fffe:0:0"},
		{2, 0, "0.0.0.0"}, {2, 24, "10.1.2.0"}, {2, 32, "127.0.0.1"},
	} {
		f.Add(s.kind, s.ones, []byte(net.ParseIP(s.ip)), uint64(s.ones)*7919, "::ffff:10.1.2.3")
	}
	f.Fuzz(func(t *testing.T, kind, ones uint8, ip []byte, seed uint64, extra string) {
		var cidr string
		addr := make(net.IP, 16)
		copy(addr, ip)
		switch kind % 3 {
		case 0:
			cidr = fmt.Sprintf("%s/%d", addr[12:16], ones%33)
		case 1:
			cidr = fmt.Sprintf("%s/%d", addr, ones%129)
			if addr.To4() != nil {
				cidr = "::ffff:" + cidr // keep the mapped spelling
			}
		default:
			cidr = fmt.Sprintf("::ffff:%s/%d", addr[12:16], 96+ones%33)
		}
		_, n, err := net.ParseCIDR(cidr)
		if err != nil {
			t.Fatalf("%s: %v", cidr, err)
		}
		expr := cidrExpr(n)
		re, err := regexp.Compile(expr)
		if err != nil {
			t.Fatalf("%s: %v", cidr, err)
		}
		r := rand.New(rand.NewPCG(seed, uint64(len(extra))))
		check := func(s string) {
			ip := net.ParseIP(s)
			if want := ip != nil && n.Contains(ip); re.MatchString(s) != want {
				t.Fatalf("%s: %q in the expression is %v, net.ParseIP and Contains say %v", cidr, s, !want, want)
			}
		}
		check(extra)
		for range 64 {
			s := spell(r, near(r, n))
			check(s)
			check(mutate(r, s))
		}
	})
}

// near returns an address in block n or just outside it: its network
// with random host bits, one prefix bit perhaps flipped, and sometimes
// the IPv4-mapped or the IPv4-compatible form.
func near(r *rand.Rand, n *net.IPNet) net.IP {
	ip := make(net.IP, 16)
	copy(ip, n.IP.To16())
	ones, bits := n.Mask.Size()
	ones += 128 - bits
	for b := ones; b < 128; b++ {
		if r.IntN(2) == 0 {
			ip[b/8] ^= 0x80 >> (b % 8)
		}
	}
	switch r.IntN(6) {
	case 0:
		if ones > 0 {
			b := r.IntN(ones)
			ip[b/8] ^= 0x80 >> (b % 8)
		}
	case 1:
		copy(ip[:12], net.IPv4(0, 0, 0, 0)[:12])
	case 2:
		clear(ip[:12])
	}
	return ip
}

// spell returns one of the spellings net.ParseIP reads as ip: a dotted
// quad for an IPv4-mapped address, or groups with random leading zeros
// and case, a random run of zero groups compressed and perhaps a dotted
// tail.
func spell(r *rand.Rand, ip net.IP) string {
	if v4 := ip.To4(); v4 != nil && r.IntN(2) == 0 {
		return v4.String()
	}
	var groups []string
	for k := 0; k < 16; k += 2 {
		g := fmt.Sprintf("%x", int(ip[k])<<8|int(ip[k+1]))
		g = strings.Repeat("0", r.IntN(5-len(g))) + g
		if r.IntN(2) == 0 {
			g = strings.ToUpper(g)
		}
		groups = append(groups, g)
	}
	tail := r.IntN(3) == 0
	if tail {
		groups = append(groups[:6], net.IP(ip[12:16]).String())
	}
	// Compress a run of zero groups, if one is drawn.
	i := r.IntN(len(groups))
	j := i
	for j < len(groups) && strings.Trim(groups[j], "0") == "" && (!tail || j < 6) {
		j++
	}
	if j > i && r.IntN(3) > 0 {
		j = i + 1 + r.IntN(j-i)
		return strings.Join(groups[:i], ":") + "::" + strings.Join(groups[j:], ":")
	}
	return strings.Join(groups, ":")
}

// mutate cuts, splices or changes one byte of s, so strings just
// outside every spelling are tried too.
func mutate(r *rand.Rand, s string) string {
	if s == "" {
		return ":"
	}
	i := r.IntN(len(s))
	switch r.IntN(4) {
	case 0:
		return s[:i] + s[i+1:]
	case 1:
		return s[:i] + string(":.0fF9%"[r.IntN(7)]) + s[i:]
	case 2:
		return s[:i] + "::" + s[i:]
	default:
		return s[:i] + string(":.0a1"[r.IntN(5)]) + s[i+1:]
	}
}

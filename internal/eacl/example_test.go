package eacl_test

import (
	"fmt"

	"gaaapi/internal/eacl"
)

// ExampleParseString parses the paper's section 7.2 local policy.
func ExampleParseString() {
	policy, err := eacl.ParseString(`
# EACL entry 1
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi*
rr_cond_notify local on:failure/sysadmin/info:cgiexploit
# EACL entry 2
pos_access_right apache *
`)
	if err != nil {
		fmt.Println("parse error:", err)
		return
	}
	fmt.Println("entries:", len(policy.Entries))
	fmt.Println("first right:", policy.Entries[0].Right)
	fmt.Println("pre conditions:", len(policy.Entries[0].Block(eacl.BlockPre)))
	// Output:
	// entries: 2
	// first right: neg_access_right apache *
	// pre conditions: 1
}

// ExampleGlob shows the wildcard language the paper's policies use.
func ExampleGlob() {
	fmt.Println(eacl.Glob("*phf*", "GET /cgi-bin/phf?Qalias=x"))
	fmt.Println(eacl.Glob("GET /cgi-bin/*", "GET /index.html"))
	// Output:
	// true
	// false
}

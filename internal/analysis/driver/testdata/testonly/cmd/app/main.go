// Command app calls lib.Used.
package main

import (
	"fmt"

	"example.com/fx/internal/lib"
)

func main() { fmt.Println(lib.Used([]lib.Point{{X: 2}, {X: 1}})) }

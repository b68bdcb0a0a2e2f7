package main

// Example runs the quickstart and pins what it prints.
func Example() {
	main()
	// Output:
	// transferred 100GB in 8.32 simulated seconds (103.2 Gbps)
	// front-end CPU: sender 124%, receiver 124% of one core
	// back-end CPU: source store 341%, sink store 343%
}

let () = print_int (Ufork_workload.M.from_example 1)

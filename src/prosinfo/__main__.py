from prosinfo.cli import main

raise SystemExit(main())
